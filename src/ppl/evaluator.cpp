#include "ppl/evaluator.hpp"

#include <cmath>

#include "obs/registry.hpp"

namespace bayes::ppl {
namespace {

/** Per-eval tape gauges (see docs/observability.md). */
struct TapeMetrics
{
    obs::Gauge& nodesPerEval =
        obs::Registry::global().gauge("tape.nodes_per_eval");
    obs::Gauge& bytesPerEval =
        obs::Registry::global().gauge("tape.bytes_per_eval");

    static TapeMetrics&
    get()
    {
        static TapeMetrics* m = new TapeMetrics; // leaked, like Registry
        return *m;
    }
};

/**
 * Constrain a flat unconstrained vector, returning the constrained
 * values and adding the log-Jacobian into @p logJ. Shared by the
 * double and Var paths.
 */
template <typename T>
std::vector<T>
constrainAll(const ParamLayout& layout, const std::vector<T>& u, T& logJ)
{
    std::vector<T> x(layout.dim());
    for (std::size_t b = 0; b < layout.blockCount(); ++b) {
        const ParamBlock& blk = layout.block(b);
        const std::size_t off = layout.offset(b);
        if (blk.transform == TransformKind::Ordered) {
            logJ += constrainOrdered(u.data() + off, x.data() + off,
                                     blk.size);
            continue;
        }
        for (std::size_t i = 0; i < blk.size; ++i) {
            x[off + i] = constrainScalar(blk.transform, u[off + i],
                                         blk.lowerBound, blk.upperBound);
            logJ += logJacobianScalar(blk.transform, u[off + i],
                                      blk.lowerBound, blk.upperBound);
        }
    }
    return x;
}

} // namespace

Evaluator::Evaluator(const Model& model)
    : model_(&model), layout_(&model.layout()),
      dataShadow_(model.modeledDataBytes(), 0)
{
}

double
Evaluator::logProb(const std::vector<double>& q)
{
    BAYES_CHECK(q.size() == dim(), "point has wrong dimension");
    ++numEvals_;
    try {
        double logJ = 0.0;
        const std::vector<double> x = constrainAll(*layout_, q, logJ);
        const ParamView<double> view(*layout_, x);
        const double lp = scalarLikelihood_ ? model_->logProbScalar(view)
                                            : model_->logProb(view);
        // -inf + finite Jacobian stays -inf: an infeasible point keeps
        // zero density no matter its transform terms.
        return lp + logJ;
    } catch (const Error&) {
        return -INFINITY;
    }
}

double
Evaluator::logProbGrad(const std::vector<double>& q,
                       std::vector<double>& grad)
{
    BAYES_CHECK(q.size() == dim(), "point has wrong dimension");
    ++numGradEvals_;
    tape_.clear();
    // Pre-size to the previous eval's footprint so the arenas do not
    // re-grow (and memcpy) mid-record.
    tape_.reserve(reserveNodes_, reserveEdges_);

    std::vector<ad::Var> u(dim());
    ad::Var lpVar(-INFINITY);
    try {
        for (std::size_t i = 0; i < dim(); ++i)
            u[i] = ad::leaf(tape_, q[i]);
        ad::Var logJ = 0.0;
        const std::vector<ad::Var> x = constrainAll(*layout_, u, logJ);
        streamDataShadow();
        const ParamView<ad::Var> view(*layout_, x);
        lpVar = (scalarLikelihood_ ? model_->logProbScalar(view)
                                   : model_->logProb(view))
            + logJ;
    } catch (const Error&) {
        lpVar = ad::Var(-INFINITY);
    }
    lastTapeNodes_ = tape_.size();
    lastTapeEdges_ = tape_.edgeCount();
    reserveNodes_ = lastTapeNodes_;
    reserveEdges_ = lastTapeEdges_;

    const double lp = lpVar.value();
    grad.assign(dim(), 0.0);
    if (!std::isfinite(lp) || !lpVar.tracked()) {
        // Divergent/out-of-support: the gradient stays zero but must be
        // well-formed for the sampler's rejection logic.
        lastTapeBytes_ = tape_.bytes();
        return lp;
    }
    tape_.gradient(lpVar.id(), adjoints_);
    lastTapeBytes_ = tape_.bytes();
    TapeMetrics& metrics = TapeMetrics::get();
    metrics.nodesPerEval.set(static_cast<double>(lastTapeNodes_));
    metrics.bytesPerEval.set(static_cast<double>(lastTapeBytes_));
    for (std::size_t d = 0; d < dim(); ++d)
        grad[d] = adjoints_[u[d].id()];
    return lp;
}

void
Evaluator::logProbBatch(const EvalBatch& batch, std::span<double> lp)
{
    BAYES_CHECK(batch.dim() == dim(), "batch has wrong dimension");
    BAYES_CHECK(lp.size() == batch.lanes(),
                "logProbBatch: output size != lane count");
    std::vector<double> q;
    for (std::size_t k = 0; k < batch.lanes(); ++k) {
        batch.getPoint(k, q);
        lp[k] = logProb(q);
    }
}

void
Evaluator::logProbGradBatch(const EvalBatch& batch, std::span<double> lp,
                            EvalBatch& grad)
{
    BAYES_CHECK(batch.dim() == dim(), "batch has wrong dimension");
    BAYES_CHECK(lp.size() == batch.lanes(),
                "logProbGradBatch: output size != lane count");
    grad.resize(dim(), batch.lanes());
    std::vector<double> q, g;
    for (std::size_t k = 0; k < batch.lanes(); ++k) {
        batch.getPoint(k, q);
        lp[k] = logProbGrad(q, g);
        grad.setPoint(k, g);
    }
}

std::vector<double>
Evaluator::constrain(const std::vector<double>& q) const
{
    BAYES_CHECK(q.size() == dim(), "point has wrong dimension");
    double logJ = 0.0;
    return constrainAll(*layout_, q, logJ);
}

void
Evaluator::streamDataShadow()
{
    ad::MemProbe* probe = tape_.probe();
    if (!probe || dataShadow_.empty())
        return;
    // One sequential pass over the observed data, touched at
    // cache-line granularity.
    constexpr std::size_t kLine = 64;
    for (std::size_t off = 0; off < dataShadow_.size(); off += kLine)
        probe->access(dataShadow_.data() + off, kLine, false);
}

} // namespace bayes::ppl
