// Value streams: the FP32 draws behind one matrix of a working point's
// inputs, and the engine's memo of them.
//
// The paper generates FP32 values once and converts them per datatype
// (Section III), and its placement and sparsity figures (5a, 6a) reorder
// or zero those same Gaussian draws.  A stream is a pure function of its
// generator, scaled mean, effective sigma, set size, count and derived
// stream seed (the per-stream seeding discipline of gSeaGen, PAPERS.md),
// so working points that differ only in dtype, placement, sparsity or bit
// op draw the same A and B streams.  A ValuesMemoTable lets an
// ExperimentEngine generate each of them once while it is busy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/memo_table.hpp"
#include "core/pattern_spec.hpp"
#include "core/scenario.hpp"

namespace gpupower::core {

/// Everything one generated FP32 stream depends on.
struct ValueStream {
  PatternSpec::Value value = PatternSpec::Value::kGaussian;
  double mean = 0.0;          ///< in the dtype's range (INT8 scaled)
  double sigma = 0.0;         ///< effective (the paper default resolved)
  std::size_t set_size = 0;   ///< read by Value::kValueSet only
  std::size_t count = 0;
  std::uint64_t seed = 0;     ///< the derived per-stream seed

  /// The stream's values (patterns/distributions.hpp).
  [[nodiscard]] std::vector<float> generate() const;
  /// Every field the values depend on, exactly: the memo key.
  [[nodiscard]] std::string key() const;
};

using SharedValues = std::shared_ptr<const std::vector<float>>;

/// Completed stream bytes a ValuesMemoTable keeps: one A/B pair at
/// N = 1024.  A larger stream is shared only while it is generated.
inline constexpr std::size_t kValuesMemoBudgetBytes = std::size_t{8} << 20;

/// The stream -> values table an ExperimentEngine owns: a MemoTable
/// (core/memo_table.hpp) whose entries cost their bytes.  The engine
/// clears it whenever its queue drains, so an idle engine holds no
/// stream bytes.
class ValuesMemoTable : public MemoTable<SharedValues> {
 public:
  ValuesMemoTable()
      : MemoTable(kValuesMemoBudgetBytes,
                  [](const SharedValues& values) noexcept -> std::size_t {
                    return values->size() * sizeof(float);
                  }) {}
};

/// One requester's view of a ValuesMemoTable: the kind whose counters its
/// lookups bump and the scenario key its `inputs.values` spans carry (an
/// obs::intern()ed string, or nullptr).
class ValuesMemo {
 public:
  ValuesMemo(ValuesMemoTable& table, ScenarioKind kind,
             const char* trace_key = nullptr) noexcept
      : table_(&table), kind_(kind), trace_key_(trace_key) {}

  /// stream.generate(), generated at most once per stream while the
  /// table holds it or generates it.  The values are immutable and
  /// outlive their entry.
  [[nodiscard]] SharedValues get(const ValueStream& stream) const;

 private:
  ValuesMemoTable* table_;
  ScenarioKind kind_;
  const char* trace_key_;
};

}  // namespace gpupower::core
