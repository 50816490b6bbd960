/**
 * @file
 * SoA block of K unconstrained parameter points — the unit of work of
 * the batched evaluation surface (Evaluator::logProbBatch /
 * logProbGradBatch).
 *
 * Storage is coordinate-major: all K lanes' values of coordinate d are
 * contiguous at [d*K, (d+1)*K). That makes the per-coordinate lane
 * spans unit-stride, which is what the batched math kernels and the
 * constraining transforms want to auto-vectorize across lanes, and it
 * is the natural layout for a K×D gradient block written one
 * coordinate at a time.
 */
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "support/error.hpp"

namespace bayes::ppl {

/** K unconstrained points of dimension D, stored coordinate-major. */
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

    /** All K lanes' values of coordinate @p d (unit stride). */
    std::span<double>
    coord(std::size_t d)
    {
        BAYES_ASSERT(d < dim_);
        return {data_.data() + d * lanes_, lanes_};
    }

    /** All K lanes' values of coordinate @p d (unit stride). */
    std::span<const double>
    coord(std::size_t d) const
    {
        BAYES_ASSERT(d < dim_);
        return {data_.data() + d * lanes_, lanes_};
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

    /** Raw coordinate-major storage, size dim()*lanes(). */
    std::span<const double> data() const { return data_; }

  private:
    std::size_t dim_ = 0;
    std::size_t lanes_ = 0;
    std::vector<double> data_;
};

} // namespace bayes::ppl
