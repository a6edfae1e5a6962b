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

void ValuesMemoTable::clear() {
  streams.clear();
  normals.clear();
  requested.clear();
  ranks.clear();
}

std::size_t ValuesMemoTable::held_bytes() const {
  return streams.held_cost() + normals.held_cost() + ranks.held_cost();
}

namespace {

const char* traversal_name(patterns::Traversal traversal) noexcept {
  switch (traversal) {
    case patterns::Traversal::kRows:
      break;
    case patterns::Traversal::kColumns:
      return "columns";
    case patterns::Traversal::kWithinRows:
      return "within_rows";
  }
  return "rows";
}

/// Tags a memo span with the requester's scenario key and the outcome.
void tag_span(obs::Span& span, const char* trace_key, MemoOutcome outcome) {
  if (!obs::tracing_enabled()) return;
  obs::SpanArgs args;
  if (trace_key != nullptr) args.arg("key", trace_key);
  span.args(args.arg("outcome", outcome_name(outcome)));
}

/// A Gaussian stream's values under the lazy normals rule: drawn directly
/// on the first request of its (count, seed), scaled from the draw's
/// memoised standard normals on every later one.
std::vector<float> draw_gaussian(ValuesMemoTable& table, ScenarioKind kind,
                                 const char* trace_key,
                                 const ValueStream& stream) {
  // Normals that do not fit their table would be drawn again per scale.
  if (stream.count > kNormalsMemoBudgetBytes / sizeof(double)) {
    return stream.generate();
  }
  const std::string draw =
      std::to_string(stream.count) + '|' + std::to_string(stream.seed);
  MemoOutcome first = MemoOutcome::kMiss;
  (void)table.requested.get(draw, kind, [] { return true; }, first);
  if (first == MemoOutcome::kMiss) return stream.generate();
  obs::Span span("inputs.normals");
  MemoOutcome outcome = MemoOutcome::kMiss;
  const SharedNormals normals = table.normals.get(
      draw, kind,
      [&stream] {
        return std::make_shared<const std::vector<double>>(
            patterns::standard_normals(stream.count, stream.seed));
      },
      outcome);
  tag_span(span, trace_key, outcome);
  return patterns::scale_normals(*normals, stream.mean, stream.sigma);
}

}  // namespace

SharedValues ValuesMemo::get(const ValueStream& stream) const {
  obs::Span span("inputs.values");
  MemoOutcome outcome = MemoOutcome::kMiss;
  SharedValues values = table_->streams.get(
      stream.key(), kind_,
      [this, &stream] {
        return std::make_shared<const std::vector<float>>(
            stream.value == PatternSpec::Value::kGaussian
                ? draw_gaussian(*table_, kind_, trace_key_, stream)
                : stream.generate());
      },
      outcome);
  tag_span(span, trace_key_, outcome);
  return values;
}

SharedRanking ValuesMemo::ranking(const ValueStream& stream,
                                  std::span<const float> values,
                                  std::size_t rows, std::size_t cols,
                                  patterns::Traversal traversal) const {
  obs::Span span("inputs.rank");
  MemoOutcome outcome = MemoOutcome::kMiss;
  std::string key = stream.key();
  key += '|';
  key += traversal_name(traversal);
  key += '|';
  key += std::to_string(rows);
  key += 'x';
  key += std::to_string(cols);
  SharedRanking ranking = table_->ranks.get(
      std::move(key), kind_,
      [&] {
        return std::make_shared<const patterns::Ranking>(
            patterns::rank(values, rows, cols, traversal));
      },
      outcome);
  tag_span(span, trace_key_, outcome);
  return ranking;
}

}  // namespace gpupower::core
