//===- opt/GeneralOpts.cpp - Step 2 driver ------------------------------------===//

#include "opt/GeneralOpts.h"

#include "analysis/AnalysisCache.h"
#include "opt/DeadCodeElim.h"
#include "opt/ExtensionPRE.h"
#include "opt/LocalOpts.h"
#include "opt/SimplifyCFG.h"

using namespace sxe;

unsigned sxe::runGeneralOpts(Function &F, const TargetInfo &Target,
                             AnalysisCache &Cache) {
  unsigned Total = 0;
  // Two rounds are enough in practice: folding exposes dead code, DCE
  // exposes further folding opportunities once.
  for (unsigned Round = 0; Round < 2; ++Round) {
    unsigned RoundWork = 0;
    RoundWork += runSimplifyCFG(F, Cache);
    RoundWork += runLocalOpts(F);
    RoundWork += runExtensionPRE(F, Target, Cache);
    RoundWork += runDeadCodeElim(F, Cache);
    Total += RoundWork;
    if (RoundWork == 0)
      break;
  }
  return Total;
}
