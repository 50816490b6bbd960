#include "archsim/profiler.hpp"

#include <memory>

#include "samplers/dual_averaging.hpp"
#include "samplers/nuts.hpp"
#include "samplers/runner.hpp"

namespace bayes::archsim {

WorkloadProfile
profileWorkload(const ppl::Model& model, int chains, int warmupIters,
                std::uint64_t seed, bool scalarLikelihood)
{
    BAYES_CHECK(chains >= 1, "need at least one chain to profile");
    WorkloadProfile profile;

    // All evaluators must be alive simultaneously so their arenas and
    // data shadows occupy distinct address ranges, as real concurrent
    // chains would.
    std::vector<std::unique_ptr<ppl::Evaluator>> evals;
    evals.reserve(chains);
    for (int c = 0; c < chains; ++c) {
        evals.push_back(std::make_unique<ppl::Evaluator>(model));
        evals.back()->setScalarLikelihood(scalarLikelihood);
    }

    Rng master(seed);
    for (int c = 0; c < chains; ++c) {
        ppl::Evaluator& eval = *evals[c];
        Rng rng = master.fork();

        samplers::Hamiltonian ham(eval);
        samplers::NutsSampler nuts(ham, /*maxTreeDepth=*/8);
        samplers::PhasePoint z;
        z.q = samplers::findInitialPoint(eval, rng);
        ham.refresh(z);

        samplers::DualAveraging da(ham.findReasonableStepSize(z, rng), 0.8);
        nuts.setStepSize(da.stepSize());
        for (int t = 0; t < warmupIters; ++t) {
            const auto tr = nuts.transition(z, rng);
            da.update(tr.acceptStat);
            nuts.setStepSize(da.stepSize());
        }

        // Capture exactly one instrumented gradient evaluation.
        TraceCapture capture;
        eval.tape().setProbe(&capture);
        std::vector<double> grad;
        eval.logProbGrad(z.q, grad);
        eval.tape().setProbe(nullptr);

        EvalProfile ep;
        ep.trace = capture.trace();
        ep.tapeNodes = eval.lastTapeNodes();
        ep.opCounts = eval.tape().opCounts();
        ep.dim = eval.dim();
        ep.dataBytes = model.modeledDataBytes();
        profile.chains.push_back(std::move(ep));
    }
    return profile;
}

} // namespace bayes::archsim
