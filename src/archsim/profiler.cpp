#include "archsim/profiler.hpp"

#include "samplers/dual_averaging.hpp"
#include "samplers/nuts.hpp"
#include "samplers/runner.hpp"

namespace bayes::archsim {

WorkloadProfile
profileWorkload(const ppl::Model& model, int chains, TapeKind tape,
                int warmupIters, std::uint64_t seed)
{
    BAYES_CHECK(chains >= 1, "need at least one chain to profile");
    WorkloadProfile profile;
    Rng master(seed);
    for (int c = 0; c < chains; ++c) {
        ppl::Evaluator eval(model);
        eval.tape().setPerObservation(tape == TapeKind::Reference);
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

        std::vector<double> grad;
        eval.logProbGrad(z.q, grad);

        EvalProfile ep;
        ep.trace = gradientTrace(eval.tape(), eval.densityBegin(),
                                 model.modeledDataBytes(), c);
        ep.tapeNodes = eval.lastTapeNodes();
        ep.opCounts = eval.tape().opCounts();
        ep.dim = eval.dim();
        ep.dataBytes = model.modeledDataBytes();
        profile.chains.push_back(std::move(ep));
    }
    return profile;
}

} // namespace bayes::archsim
