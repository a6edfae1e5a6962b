#include "core/values_memo.hpp"

#include "core/obs/obs.hpp"
#include "gpusim/dvfs/dsl_util.hpp"
#include "patterns/distributions.hpp"

namespace gpupower::core {

std::vector<float> ValueStream::generate() const {
  switch (value) {
    case PatternSpec::Value::kGaussian:
      break;
    case PatternSpec::Value::kValueSet:
      return patterns::value_set_fill(count, set_size, mean, sigma, seed);
    case PatternSpec::Value::kConstant:
      return patterns::constant_random_fill(count, mean, sigma, seed);
  }
  return patterns::gaussian_fill(count, mean, sigma, seed);
}

std::string ValueStream::key() const {
  using gpupower::gpusim::dvfs::detail::format_exact;
  std::string key;
  switch (value) {
    case PatternSpec::Value::kGaussian:
      key = "gaussian";
      break;
    case PatternSpec::Value::kValueSet:
      key = "set" + std::to_string(set_size);
      break;
    case PatternSpec::Value::kConstant:
      key = "constant";
      break;
  }
  key += '|';
  key += format_exact(mean);
  key += '|';
  key += format_exact(sigma);
  key += '|';
  key += std::to_string(count);
  key += '|';
  key += std::to_string(seed);
  return key;
}

SharedValues ValuesMemo::get(const ValueStream& stream) const {
  obs::Span span("inputs.values");
  MemoOutcome outcome = MemoOutcome::kMiss;
  SharedValues values = table_->get(
      stream.key(), kind_,
      [&stream] {
        return std::make_shared<const std::vector<float>>(stream.generate());
      },
      outcome);
  if (obs::tracing_enabled()) {
    obs::SpanArgs args;
    if (trace_key_ != nullptr) args.arg("key", trace_key_);
    span.args(args.arg("outcome", outcome_name(outcome)));
  }
  return values;
}

}  // namespace gpupower::core
