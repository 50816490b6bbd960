/**
 * @file
 * Block of K unconstrained parameter points — the argument of
 * Evaluator::logProbBatch / logProbGradBatch, which evaluate the lanes
 * one at a time.
 */
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "support/error.hpp"

namespace bayes::ppl {

/** K unconstrained points of dimension D. */
class EvalBatch
{
  public:
    EvalBatch() = default;

    /** Allocate a D-dim, K-lane block (zero-initialized). */
    EvalBatch(std::size_t dim, std::size_t lanes) { resize(dim, lanes); }

    /** Reshape to D×K, zeroing the contents. */
    void
    resize(std::size_t dim, std::size_t lanes)
    {
        dim_ = dim;
        lanes_ = lanes;
        data_.assign(dim * lanes, 0.0);
    }

    /** Number of coordinates D per point. */
    std::size_t dim() const { return dim_; }

    /** Number of points K in the batch. */
    std::size_t lanes() const { return lanes_; }

    /** Value of coordinate @p d in lane @p k. */
    double&
    at(std::size_t d, std::size_t k)
    {
        BAYES_ASSERT(d < dim_ && k < lanes_);
        return data_[d * lanes_ + k];
    }

    /** Value of coordinate @p d in lane @p k. */
    double
    at(std::size_t d, std::size_t k) const
    {
        BAYES_ASSERT(d < dim_ && k < lanes_);
        return data_[d * lanes_ + k];
    }

    /** Scatter a flat D-dim point into lane @p k. */
    void
    setPoint(std::size_t k, std::span<const double> q)
    {
        BAYES_CHECK(q.size() == dim_,
                    "EvalBatch::setPoint: point has wrong dimension");
        BAYES_ASSERT(k < lanes_);
        for (std::size_t d = 0; d < dim_; ++d)
            data_[d * lanes_ + k] = q[d];
    }

    /** Gather lane @p k into a flat D-dim vector. */
    void
    getPoint(std::size_t k, std::vector<double>& q) const
    {
        BAYES_ASSERT(k < lanes_);
        q.resize(dim_);
        for (std::size_t d = 0; d < dim_; ++d)
            q[d] = data_[d * lanes_ + k];
    }

  private:
    std::size_t dim_ = 0;
    std::size_t lanes_ = 0;
    std::vector<double> data_;
};

} // namespace bayes::ppl
