#include "core/pattern_dsl.hpp"

#include <cctype>
#include <charconv>
#include <map>
#include <vector>

#include "gpusim/dvfs/dsl_util.hpp"

namespace gpupower::core {
namespace {

using gpupower::gpusim::dvfs::detail::format_exact;

struct Arg {
  std::string key;  ///< empty for positional
  double value = 0.0;
  bool percent = false;
};

struct Stage {
  std::string name;
  std::vector<Arg> args;
  std::size_t pos = 0;
};

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  bool parse(std::vector<Stage>& stages, std::string& error,
             std::size_t& error_pos) {
    skip_ws();
    if (at_end()) {
      error = "empty pattern";
      error_pos = 0;
      return false;
    }
    for (;;) {
      Stage stage;
      if (!parse_stage(stage, error, error_pos)) return false;
      stages.push_back(std::move(stage));
      skip_ws();
      if (at_end()) return true;
      if (!consume('|')) {
        error = "expected '|' between stages";
        error_pos = pos_;
        return false;
      }
    }
  }

 private:
  [[nodiscard]] bool at_end() const { return pos_ >= text_.size(); }
  void skip_ws() {
    while (!at_end() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool consume(char c) {
    skip_ws();
    if (!at_end() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool parse_identifier(std::string& out) {
    skip_ws();
    const std::size_t start = pos_;
    while (!at_end() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    out.assign(text_.substr(start, pos_ - start));
    return true;
  }

  bool parse_number(double& out) {
    skip_ws();
    const char* begin = text_.data() + pos_;
    const char* end = text_.data() + text_.size();
    const auto [ptr, ec] = std::from_chars(begin, end, out);
    if (ec != std::errc{}) return false;
    pos_ += static_cast<std::size_t>(ptr - begin);
    return true;
  }

  bool parse_stage(Stage& stage, std::string& error, std::size_t& error_pos) {
    skip_ws();
    stage.pos = pos_;
    if (!parse_identifier(stage.name)) {
      error = "expected stage name";
      error_pos = pos_;
      return false;
    }
    if (!consume('(')) {
      error = "expected '(' after '" + stage.name + "'";
      error_pos = pos_;
      return false;
    }
    skip_ws();
    if (consume(')')) return true;
    for (;;) {
      Arg arg;
      skip_ws();
      // Optional key=
      const std::size_t before = pos_;
      std::string ident;
      if (parse_identifier(ident)) {
        if (consume('=')) {
          arg.key = ident;
        } else {
          pos_ = before;  // it was the start of something else (error below)
        }
      }
      if (!parse_number(arg.value)) {
        error = "expected number in '" + stage.name + "(...)'";
        error_pos = pos_;
        return false;
      }
      if (consume('%')) arg.percent = true;
      stage.args.push_back(std::move(arg));
      if (consume(',')) continue;
      if (consume(')')) return true;
      error = "expected ',' or ')' in '" + stage.name + "(...)'";
      error_pos = pos_;
      return false;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

/// Looks up an argument by key, or by position when unnamed.
bool find_arg(const Stage& stage, std::string_view key, std::size_t position,
              double& out, bool as_fraction_when_percent = false) {
  std::size_t positional = 0;
  for (const Arg& arg : stage.args) {
    const bool named_match = !arg.key.empty() && arg.key == key;
    const bool positional_match = arg.key.empty() && positional == position;
    if (arg.key.empty()) ++positional;
    if (named_match || positional_match) {
      out = arg.percent && as_fraction_when_percent ? arg.value / 100.0
                                                    : arg.value;
      return true;
    }
  }
  return false;
}

bool fail(ParseResult& result, const Stage& stage, const std::string& message) {
  result.ok = false;
  result.error = message;
  result.error_pos = stage.pos;
  return false;
}

bool apply_stage(ParseResult& result, const Stage& stage, bool& have_value,
                 bool& have_place, bool& have_sparsity, bool& have_bitop) {
  PatternSpec& spec = result.spec;
  const auto one_value_stage = [&]() {
    if (have_value) {
      return fail(result, stage,
                  "duplicate value-distribution stage '" + stage.name + "'");
    }
    have_value = true;
    return true;
  };
  const auto one_place_stage = [&]() {
    if (have_place) {
      return fail(result, stage, "duplicate placement stage '" + stage.name + "'");
    }
    have_place = true;
    return true;
  };
  const auto one_bit_stage = [&]() {
    if (have_bitop) {
      return fail(result, stage, "duplicate bit stage '" + stage.name + "'");
    }
    have_bitop = true;
    return true;
  };

  double v = 0.0;
  if (stage.name == "gaussian" || stage.name == "constant" ||
      stage.name == "set") {
    if (!one_value_stage()) return false;
    if (stage.name == "gaussian") spec.value = PatternSpec::Value::kGaussian;
    if (stage.name == "constant") spec.value = PatternSpec::Value::kConstant;
    if (stage.name == "set") {
      spec.value = PatternSpec::Value::kValueSet;
      if (find_arg(stage, "size", 0, v)) {
        if (v < 1.0) return fail(result, stage, "set size must be >= 1");
        spec.set_size = static_cast<std::size_t>(v);
      }
    }
    const std::size_t mean_pos = stage.name == "set" ? 1 : 0;
    if (find_arg(stage, "mean", mean_pos, v)) spec.mean = v;
    if (find_arg(stage, "sigma", mean_pos + 1, v)) {
      if (v <= 0.0) return fail(result, stage, "sigma must be positive");
      spec.sigma = v;
    }
    return true;
  }
  if (stage.name == "sort_rows" || stage.name == "sort_cols" ||
      stage.name == "sort_within_rows") {
    if (!one_place_stage()) return false;
    spec.place = stage.name == "sort_rows"
                     ? PatternSpec::Place::kSortRows
                     : stage.name == "sort_cols"
                           ? PatternSpec::Place::kSortColumns
                           : PatternSpec::Place::kSortWithinRows;
    if (!find_arg(stage, "percent", 0, v)) {
      return fail(result, stage, stage.name + " needs a percentage");
    }
    if (v < 0.0 || v > 100.0) {
      return fail(result, stage, "sort percentage must be in [0, 100]");
    }
    spec.sort_percent = v;
    return true;
  }
  if (stage.name == "full_sort") {
    if (!one_place_stage()) return false;
    spec.place = PatternSpec::Place::kFullSort;
    return true;
  }
  if (stage.name == "sparsity") {
    if (have_sparsity) return fail(result, stage, "duplicate sparsity stage");
    have_sparsity = true;
    if (!find_arg(stage, "fraction", 0, v, /*as_fraction_when_percent=*/true)) {
      return fail(result, stage, "sparsity needs a fraction");
    }
    if (v < 0.0 || v > 1.0) {
      return fail(result, stage, "sparsity fraction must be in [0, 1]");
    }
    spec.sparsity = v;
    return true;
  }
  static const std::map<std::string_view, PatternSpec::BitOp> kBitOps{
      {"flip_bits", PatternSpec::BitOp::kFlipRandom},
      {"rand_lsb", PatternSpec::BitOp::kRandomizeLow},
      {"rand_msb", PatternSpec::BitOp::kRandomizeHigh},
      {"zero_lsb", PatternSpec::BitOp::kZeroLow},
      {"zero_msb", PatternSpec::BitOp::kZeroHigh},
  };
  if (const auto it = kBitOps.find(stage.name); it != kBitOps.end()) {
    if (!one_bit_stage()) return false;
    spec.bitop = it->second;
    if (!find_arg(stage, "fraction", 0, v, /*as_fraction_when_percent=*/true)) {
      return fail(result, stage, stage.name + " needs a width fraction");
    }
    if (v < 0.0 || v > 1.0) {
      return fail(result, stage, "bit fraction must be in [0, 1]");
    }
    spec.bit_fraction = v;
    return true;
  }
  if (stage.name == "no_transpose") {
    spec.transpose_b = false;
    return true;
  }
  return fail(result, stage, "unknown stage '" + stage.name + "'");
}

}  // namespace

ParseResult parse_pattern(std::string_view text) {
  ParseResult result;
  std::vector<Stage> stages;
  Parser parser(text);
  if (!parser.parse(stages, result.error, result.error_pos)) {
    result.ok = false;
    return result;
  }
  bool have_value = false, have_place = false, have_sparsity = false,
       have_bitop = false;
  for (const Stage& stage : stages) {
    if (!apply_stage(result, stage, have_value, have_place, have_sparsity,
                     have_bitop)) {
      return result;
    }
  }
  result.ok = true;
  return result;
}

std::string to_dsl(const PatternSpec& spec) {
  std::string out;
  switch (spec.value) {
    case PatternSpec::Value::kGaussian:
      out = "gaussian(mean=" + format_exact(spec.mean);
      break;
    case PatternSpec::Value::kValueSet:
      out = "set(size=" + std::to_string(spec.set_size) +
            ", mean=" + format_exact(spec.mean);
      break;
    case PatternSpec::Value::kConstant:
      out = "constant(mean=" + format_exact(spec.mean);
      break;
  }
  if (spec.sigma >= 0.0) out += ", sigma=" + format_exact(spec.sigma);
  out += ")";
  switch (spec.place) {
    case PatternSpec::Place::kNone:
      break;
    case PatternSpec::Place::kSortRows:
      out += " | sort_rows(" + format_exact(spec.sort_percent) + "%)";
      break;
    case PatternSpec::Place::kSortColumns:
      out += " | sort_cols(" + format_exact(spec.sort_percent) + "%)";
      break;
    case PatternSpec::Place::kSortWithinRows:
      out += " | sort_within_rows(" + format_exact(spec.sort_percent) + "%)";
      break;
    case PatternSpec::Place::kFullSort:
      out += " | full_sort()";
      break;
  }
  if (spec.sparsity > 0.0) {
    out += " | sparsity(" + format_exact(spec.sparsity) + ")";
  }
  switch (spec.bitop) {
    case PatternSpec::BitOp::kNone:
      break;
    case PatternSpec::BitOp::kFlipRandom:
      out += " | flip_bits(" + format_exact(spec.bit_fraction) + ")";
      break;
    case PatternSpec::BitOp::kRandomizeLow:
      out += " | rand_lsb(" + format_exact(spec.bit_fraction) + ")";
      break;
    case PatternSpec::BitOp::kRandomizeHigh:
      out += " | rand_msb(" + format_exact(spec.bit_fraction) + ")";
      break;
    case PatternSpec::BitOp::kZeroLow:
      out += " | zero_lsb(" + format_exact(spec.bit_fraction) + ")";
      break;
    case PatternSpec::BitOp::kZeroHigh:
      out += " | zero_msb(" + format_exact(spec.bit_fraction) + ")";
      break;
  }
  if (!spec.transpose_b) out += " | no_transpose()";
  return out;
}

std::string canonical_dsl(const PatternSpec& spec) {
  if (spec.sigma >= 0.0) return to_dsl(spec);
  // build_inputs scales an explicit FP-domain sigma by 25/210 for INT8,
  // which maps 210 to exactly INT8's default 25: the paper default and an
  // explicit 210 are one pattern on every dtype.
  PatternSpec resolved = spec;
  resolved.sigma =
      gpupower::numeric::default_sigma(gpupower::numeric::DType::kFP32);
  return to_dsl(resolved);
}

}  // namespace gpupower::core
