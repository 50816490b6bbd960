#include "ppl/model.hpp"

#include "ppl/transforms.hpp"

#include <cmath>

namespace bayes::ppl {

ParamLayout::ParamLayout(std::vector<ParamBlock> blocks)
    : blocks_(std::move(blocks))
{
    offsets_.reserve(blocks_.size());
    for (const auto& b : blocks_) {
        BAYES_CHECK(b.size >= 1, "parameter block '" << b.name
                    << "' must have size >= 1");
        if (b.transform == TransformKind::Bounded) {
            BAYES_CHECK(b.lowerBound < b.upperBound,
                        "bounded block '" << b.name << "' needs lb < ub");
        }
        offsets_.push_back(dim_);
        dim_ += b.size;
    }
}

std::size_t
ParamLayout::blockIndex(const std::string& name) const
{
    for (std::size_t b = 0; b < blocks_.size(); ++b) {
        if (blocks_[b].name == name)
            return b;
    }
    throw Error("unknown parameter block '" + name + "'");
}

std::string
ParamLayout::coordName(std::size_t i) const
{
    BAYES_CHECK(i < dim_, "coordinate index out of range");
    for (std::size_t b = 0; b < blocks_.size(); ++b) {
        const std::size_t off = offsets_[b];
        if (i >= off && i < off + blocks_[b].size) {
            if (blocks_[b].size == 1)
                return blocks_[b].name;
            return blocks_[b].name + "[" + std::to_string(i - off) + "]";
        }
    }
    BAYES_ASSERT(false);
    return {};
}

double
unconstrainScalar(TransformKind kind, double x, double lb, double ub)
{
    switch (kind) {
      case TransformKind::Identity:
        return x;
      case TransformKind::LowerBound:
        BAYES_CHECK(x > lb, "value below lower bound");
        return std::log(x - lb);
      case TransformKind::UpperBound:
        BAYES_CHECK(x < ub, "value above upper bound");
        return std::log(ub - x);
      case TransformKind::Bounded:
        BAYES_CHECK(x > lb && x < ub, "value outside bounds");
        return math::logit((x - lb) / (ub - lb));
      case TransformKind::Ordered:
        break;
    }
    throw Error("unconstrainScalar does not handle Ordered blocks");
}

} // namespace bayes::ppl
