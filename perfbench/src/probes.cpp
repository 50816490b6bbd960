/**
 * @file
 * Per-layer probes that do not depend on the workload being measured:
 * the evaluator and tape (ppl/ad) per suite model, the fused math
 * kernels, the posterior summary (diagnostics) and the amortized
 * tier's one-time fit. Every number is a median over repeated blocks
 * of calls timed on the benchmark's own clock after a warm-up.
 */
#include <span>
#include <vector>

#include "ad/tape.hpp"
#include "ad/var.hpp"
#include "bench.hpp"
#include "diagnostics/summary.hpp"
#include "math/vec_kernels.hpp"
#include "ppl/evaluator.hpp"
#include "samplers/amortize.hpp"
#include "samplers/runner.hpp"
#include "serve/load_generator.hpp"
#include "support/rng.hpp"
#include "workloads/workload.hpp"

namespace perfbench {
namespace {

using namespace bayes;

/**
 * Seconds per call of @p fn: a warm-up, then the median over blocks of
 * at least @p blockSeconds each.
 */
template <typename Fn>
double
secondsPerCall(Fn&& fn, double blockSeconds = 0.02, int blocks = 7)
{
    for (int i = 0; i < 3; ++i)
        fn();
    std::vector<double> perCall;
    for (int b = 0; b < blocks; ++b) {
        long calls = 0;
        const double start = now();
        double elapsed = 0.0;
        do {
            fn();
            ++calls;
            elapsed = now() - start;
        } while (elapsed < blockSeconds);
        perCall.push_back(elapsed / static_cast<double>(calls));
    }
    return median(perCall);
}

/** A finite-density starting point, the same on every run. */
std::vector<double>
startPoint(ppl::Evaluator& eval, std::uint64_t seed)
{
    Rng rng(seed);
    return samplers::findInitialPoint(eval, rng, seed);
}

/** Both K=2 lanes hold distinct finite points, as in a 2-chain round. */
ppl::EvalBatch
twoLaneBatch(ppl::Evaluator& eval)
{
    ppl::EvalBatch batch(eval.dim(), 2);
    batch.setPoint(0, startPoint(eval, 11));
    batch.setPoint(1, startPoint(eval, 12));
    return batch;
}

void
evaluatorProbes(Metrics& out)
{
    for (const std::string& name : workloads::suiteNames()) {
        const auto model = workloads::makeWorkload(name);
        ppl::Evaluator eval(*model);
        const std::vector<double> q = startPoint(eval, 7);
        std::vector<double> grad;
        auto call = [&] { eval.logProbGrad(q, grad); };
        const double seconds = secondsPerCall(call);

        // Steady state: the warm-up above sized every buffer, so what
        // is left is the per-call allocation count.
        constexpr int kCalls = 50;
        const std::uint64_t before = threadAllocations();
        for (int i = 0; i < kCalls; ++i)
            call();
        const double allocs =
            static_cast<double>(threadAllocations() - before) / kCalls;

        out["ppl.grad_us." + name] = {seconds * 1e6, "us"};
        out["ad.tape_nodes." + name] = {
            static_cast<double>(eval.lastTapeNodes()), "count"};
        out["ppl.allocs_per_grad." + name] = {allocs, "count"};
    }
}

/** Seconds per K=2 value-only batch of one model. */
double
probeLogProbBatchSeconds(const std::string& workload, double dataScale)
{
    const auto model = workloads::makeWorkload(workload, dataScale);
    ppl::Evaluator eval(*model);
    const ppl::EvalBatch batch = twoLaneBatch(eval);
    std::vector<double> lp(2);
    return secondsPerCall([&] { eval.logProbBatch(batch, lp); });
}

/** Seconds per K=2 gradient batch of one model. */
double
probeGradBatchSeconds(const std::string& workload, double dataScale)
{
    const auto model = workloads::makeWorkload(workload, dataScale);
    ppl::Evaluator eval(*model);
    const ppl::EvalBatch batch = twoLaneBatch(eval);
    ppl::EvalBatch grads;
    std::vector<double> lp(2);
    return secondsPerCall([&] { eval.logProbGradBatch(batch, lp, grads); });
}

/**
 * One 2-chain round of each serve_mix tenant's model, at the scale the
 * tenant requests: a value-only batch for MH tenants, a gradient batch
 * for HMC tenants.
 */
void
batchProbes(Metrics& out)
{
    for (const serve::TenantSpec& spec : serve::defaultTenantMix()) {
        if (spec.config.algorithm == samplers::Algorithm::Mh)
            out["ppl.logprob_us." + spec.workload] = {
                probeLogProbBatchSeconds(spec.workload, spec.dataScale)
                    * 1e6,
                "us"};
        else
            out["ppl.batch_grad_us." + spec.workload] = {
                probeGradBatchSeconds(spec.workload, spec.dataScale) * 1e6,
                "us"};
    }
}

/**
 * The three fused kernels the suite's hottest likelihoods use, each on
 * a taped call over n rows (value + reverse sweep). Bytes are computed
 * from the data each call streams, not measured.
 */
void
kernelProbes(Metrics& out)
{
    constexpr std::size_t n = 4096;
    constexpr std::size_t numK = 4;
    Rng rng(42);
    std::vector<double> ys(n);
    for (double& y : ys)
        y = rng.normal(0.5, 1.3);
    std::vector<double> x(n * numK);
    for (double& v : x)
        v = rng.normal(0.0, 0.5);
    std::vector<int> bits(n);
    std::vector<long> counts(n);
    for (std::size_t i = 0; i < n; ++i) {
        bits[i] = static_cast<int>(rng.uniformInt(2));
        counts[i] = static_cast<long>(rng.uniformInt(7));
    }

    ad::Tape tape;
    std::vector<double> adj;
    const double normal = secondsPerCall([&] {
        tape.clear();
        const ad::Var mu = ad::leaf(tape, 0.3);
        const ad::Var sigma = ad::leaf(tape, 1.1);
        const ad::Var lp =
            math::normal_lpdf_vec(std::span<const double>(ys), mu, sigma);
        tape.gradient(lp.id(), adj);
    });
    const double bernoulli = secondsPerCall([&] {
        tape.clear();
        std::vector<ad::Var> betas;
        for (std::size_t k = 0; k < numK; ++k)
            betas.push_back(ad::leaf(tape, 0.1 * static_cast<double>(k)));
        const ad::Var alpha = ad::leaf(tape, 0.4);
        const ad::Var lp = math::bernoulli_logit_glm_lpmf(
            std::span<const int>(bits), std::span<const double>(x), alpha,
            std::span<const ad::Var>(betas));
        tape.gradient(lp.id(), adj);
    });
    const double poisson = secondsPerCall([&] {
        tape.clear();
        std::vector<ad::Var> betas;
        for (std::size_t k = 0; k < numK; ++k)
            betas.push_back(ad::leaf(tape, 0.05 * static_cast<double>(k)));
        const std::vector<ad::Var> alphas{ad::leaf(tape, 1.2)};
        const ad::Var lp = math::poisson_log_glm_lpmf(
            std::span<const long>(counts), std::span<const double>(x), {},
            {}, std::span<const ad::Var>(alphas),
            std::span<const ad::Var>(betas));
        tape.gradient(lp.id(), adj);
    });

    const double items = static_cast<double>(n);
    const double glmRow = static_cast<double>(numK * sizeof(double));
    auto record = [&](const std::string& kernel, double seconds,
                      double bytesPerItem) {
        out["math." + kernel + "_ns_per_item"] = {seconds / items * 1e9,
                                                  "ns"};
        out["math." + kernel + "_gbps_computed"] = {
            bytesPerItem * items / seconds / 1e9, "GB/s"};
    };
    record("normal_lpdf_vec", normal, sizeof(double));
    record("bernoulli_logit_glm", bernoulli, glmRow + sizeof(int));
    record("poisson_log_glm", poisson, glmRow + sizeof(long));
}

/** summarize() on a run the size of a serve_mix request (2 x 100 draws). */
void
summaryProbe(Metrics& out)
{
    const auto model = workloads::makeWorkload("votes");
    samplers::Config config;
    config.algorithm = samplers::Algorithm::Mh;
    config.chains = 2;
    config.iterations = 200;
    const samplers::RunResult run = samplers::run(*model, config);
    const double seconds = secondsPerCall(
        [&] { diagnostics::summarize(run, model->layout()); });
    out["diagnostics.summarize_ms"] = {seconds * 1e3, "ms"};
}

/** One timed AmortizedCache::fit per serve_repeat model. */
void
amortizeFitProbes(Metrics& out)
{
    for (const char* name : kRepeatModels) {
        const auto model = workloads::makeWorkload(name, kRepeatScale);
        ppl::Evaluator eval(*model);
        samplers::amortize::AmortizedCache cache(tierConfig());
        const samplers::amortize::CacheKey key{
            name, samplers::amortize::AmortizedCache::statsDigest(*model),
            kRepeatScale};
        const double start = now();
        cache.fit(key, *model, eval);
        out[std::string("amortize.fit_s.") + name] = {now() - start, "s"};
    }
}

} // namespace

void
layerProbes(Metrics& out)
{
    evaluatorProbes(out);
    batchProbes(out);
    kernelProbes(out);
    summaryProbe(out);
    amortizeFitProbes(out);
}

} // namespace perfbench
