/**
 * @file
 * The probabilistic-model interface. A Model declares its parameter
 * blocks (name, size, constraint) and evaluates the log joint density
 * of data and constrained parameters through two virtual entry points
 * (double for value-only evaluation, ad::Var for gradient evaluation).
 * A model that writes its density once, as a template over both, says
 * so by deriving from DensityOf.
 */
#pragma once

#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "ad/var.hpp"
#include "ppl/transforms.hpp"
#include "support/error.hpp"

namespace bayes::ppl {

/** One named block of parameters sharing a constraint. */
struct ParamBlock
{
    std::string name;
    std::size_t size = 1;
    TransformKind transform = TransformKind::Identity;
    double lowerBound = 0.0;
    double upperBound = 0.0;
};

/**
 * Resolved parameter layout: blocks plus their offsets into the flat
 * parameter vector (unconstrained and constrained spaces share the
 * layout since every supported transform is dimension-preserving).
 */
class ParamLayout
{
  public:
    ParamLayout() = default;

    /** Compute offsets for the given blocks. */
    explicit ParamLayout(std::vector<ParamBlock> blocks);

    /** Total number of scalar parameters. */
    std::size_t dim() const { return dim_; }

    /** Number of blocks. */
    std::size_t blockCount() const { return blocks_.size(); }

    /** Block metadata. */
    const ParamBlock& block(std::size_t b) const { return blocks_[b]; }

    /** Offset of block @p b in the flat vector. */
    std::size_t offset(std::size_t b) const { return offsets_[b]; }

    /** Index of the block with the given name. @throws Error if absent */
    std::size_t blockIndex(const std::string& name) const;

    /** Flat-vector name of coordinate i, e.g. "beta[2]". */
    std::string coordName(std::size_t i) const;

  private:
    std::vector<ParamBlock> blocks_;
    std::vector<std::size_t> offsets_;
    std::size_t dim_ = 0;
};

/**
 * Typed view over a flat constrained parameter vector, resolved against
 * a layout. Models read their parameters through this.
 */
template <typename T>
class ParamView
{
  public:
    ParamView(const ParamLayout& layout, const std::vector<T>& values)
        : layout_(&layout), values_(&values)
    {
        BAYES_ASSERT(values.size() == layout.dim());
    }

    /** Scalar value of a size-1 block. */
    const T&
    scalar(std::size_t block) const
    {
        BAYES_ASSERT(layout_->block(block).size == 1);
        return (*values_)[layout_->offset(block)];
    }

    /** Element @p i of block @p block. */
    const T&
    at(std::size_t block, std::size_t i) const
    {
        BAYES_ASSERT(i < layout_->block(block).size);
        return (*values_)[layout_->offset(block) + i];
    }

    /**
     * Whole block as a contiguous span (no copy) — the form the fused
     * math::*_vec kernels consume.
     */
    std::span<const T>
    block(std::size_t b) const
    {
        return {values_->data() + layout_->offset(b),
                layout_->block(b).size};
    }

    /** Copy of a whole block as a vector. */
    std::vector<T>
    vec(std::size_t block) const
    {
        const std::size_t off = layout_->offset(block);
        const std::size_t n = layout_->block(block).size;
        return std::vector<T>(values_->begin() + off,
                              values_->begin() + off + n);
    }

    /** Size of block @p block. */
    std::size_t blockSize(std::size_t block) const
    {
        return layout_->block(block).size;
    }

    /** Raw flat access. */
    const T& operator[](std::size_t i) const { return (*values_)[i]; }

    /** Underlying layout. */
    const ParamLayout& layout() const { return *layout_; }

    /**
     * True when the values are recorded on a tape in per-observation
     * mode (ad::Tape::setPerObservation); always false for double. A
     * density branches on this where no kernel records its reference
     * loop.
     */
    bool
    perObservation() const
    {
        if constexpr (std::is_same_v<T, ad::Var>) {
            for (const ad::Var& v : *values_)
                if (v.tracked())
                    return v.tape()->perObservation();
        }
        return false;
    }

  private:
    const ParamLayout* layout_;
    const std::vector<T>* values_;
};

/**
 * A Bayesian model: parameter layout + log joint density
 * log p(data, theta) evaluated at constrained theta.
 */
class Model
{
  public:
    virtual ~Model() = default;

    /** Short identifier, e.g. "12cities". */
    virtual const std::string& name() const = 0;

    /** Parameter layout (stable for the model's lifetime). */
    virtual const ParamLayout& layout() const = 0;

    /** Log joint density, value-only path. */
    virtual double logProb(const ParamView<double>& p) const = 0;

    /**
     * Log joint density, gradient (taped) path. On a tape in
     * per-observation mode (ad::Tape::setPerObservation) the fused
     * kernels record the per-observation reference tape instead.
     */
    virtual ad::Var logProb(const ParamView<ad::Var>& p) const = 0;

    /**
     * Bytes of observed data iterated per likelihood evaluation — the
     * paper's static "modeled data size" feature (§V-A).
     */
    virtual std::size_t modeledDataBytes() const = 0;

    /**
     * Sufficient statistics of the observed dataset — a short vector of
     * canonical summaries (counts, sums, sums of squares/cross terms)
     * that identifies the dataset for amortized-posterior caching: two
     * instances of the same model family with equal statistics have the
     * same likelihood up to reordering, so a posterior fitted for one
     * serves the other. The default (empty) marks the model as not
     * amortizable; workloads opt in by returning a non-empty vector.
     * Ordering must be deterministic across processes.
     */
    virtual std::vector<double> dataSufficientStats() const { return {}; }
};

/**
 * A Model whose density is written once: @p Self defines
 *
 *     template <typename T> T logDensity(const ParamView<T>& p) const;
 *
 * and both logProb overrides call it, so the value-only and the
 * gradient path evaluate one body and no subclass can split them. A
 * Self that defines logDensity in a source file instantiates it there
 * for double and ad::Var. @p Base is Model or a Model subclass
 * (workloads::Workload), whose constructors DensityOf inherits.
 */
template <typename Self, typename Base = Model>
class DensityOf : public Base
{
  public:
    using Base::Base;

    double
    logProb(const ParamView<double>& p) const final
    {
        return static_cast<const Self&>(*this).logDensity(p);
    }

    ad::Var
    logProb(const ParamView<ad::Var>& p) const final
    {
        return static_cast<const Self&>(*this).logDensity(p);
    }
};

} // namespace bayes::ppl
