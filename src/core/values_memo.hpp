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
// ExperimentEngine generate each of them once while it is busy, scale the
// standard normals of one draw to every mean and sigma it is requested
// at, and rank each stream once for every sort level of a placement.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/memo_table.hpp"
#include "core/pattern_spec.hpp"
#include "core/scenario.hpp"
#include "patterns/placement.hpp"

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
/// Standard normals (patterns::standard_normals).
using SharedNormals = std::shared_ptr<const std::vector<double>>;
using SharedRanking = std::shared_ptr<const patterns::Ranking>;

/// Completed stream bytes a ValuesMemoTable keeps: one A/B pair at
/// N = 1024.  A larger stream is shared only while it is generated.
inline constexpr std::size_t kValuesMemoBudgetBytes = std::size_t{8} << 20;
/// Completed standard-normal bytes: one A/B pair of doubles at N = 1024.
inline constexpr std::size_t kNormalsMemoBudgetBytes = std::size_t{16} << 20;
/// Draws (count, seed) the table remembers as requested.
inline constexpr std::size_t kRequestedDrawsCapacity = 4096;
/// Completed ranking bytes: one A/B pair of one traversal at N = 1024.
inline constexpr std::size_t kRankMemoBudgetBytes = std::size_t{8} << 20;

/// The value tables an ExperimentEngine owns, each a MemoTable
/// (core/memo_table.hpp).  The engine clears them whenever its queue
/// drains, so an idle engine holds no stream bytes.
///
/// A Gaussian stream's values are float(scale_normal(g_i, mean, sigma))
/// over the standard normals g_i of its (count, seed) alone
/// (patterns/rng.hpp).  A stream is drawn directly the first time its
/// (count, seed) is requested.  A later miss of the same draw (another
/// mean or sigma, or the first stream evicted) computes its standard
/// normals once into `normals`, and every further scale is a multiply-add
/// over them.  The lazy rule keeps single-scale work (one scale per seed,
/// as in a fleet grid) off the doubles entirely.
class ValuesMemoTable {
 public:
  /// Stream key -> FP32 values; entries cost their bytes.
  MemoTable<SharedValues> streams{kValuesMemoBudgetBytes,
                                  [](const SharedValues& values) noexcept {
                                    return values->size() * sizeof(float);
                                  }};
  /// (count, seed) -> standard normals; entries cost their bytes.
  MemoTable<SharedNormals> normals{kNormalsMemoBudgetBytes,
                                   [](const SharedNormals& values) noexcept {
                                     return values->size() * sizeof(double);
                                   }};
  /// The (count, seed) draws requested so far; entries cost 1.
  MemoTable<bool> requested{
      kRequestedDrawsCapacity,
      [](const bool&) noexcept -> std::size_t { return 1; }};
  /// (stream key, traversal) -> the stream's ranking
  /// (patterns/placement.hpp); entries cost their bytes.
  MemoTable<SharedRanking> ranks{
      kRankMemoBudgetBytes, [](const SharedRanking& ranking) noexcept {
        return ranking->size() * sizeof(std::uint32_t);
      }};

  /// Drops every completed entry of every table.
  void clear();
  /// Completed bytes held: streams, normals and rankings.
  [[nodiscard]] std::size_t held_bytes() const;
};

/// One requester's view of a ValuesMemoTable: the kind whose counters its
/// lookups bump and the scenario key its `inputs.values`, `inputs.normals`
/// and `inputs.rank` spans carry (an obs::intern()ed string, or nullptr).
class ValuesMemo {
 public:
  ValuesMemo(ValuesMemoTable& table, ScenarioKind kind,
             const char* trace_key = nullptr) noexcept
      : table_(&table), kind_(kind), trace_key_(trace_key) {}

  /// stream.generate(), bit for bit, generated at most once per stream
  /// while the table holds it or generates it.  The values are immutable
  /// and outlive their entry.
  [[nodiscard]] SharedValues get(const ValueStream& stream) const;

  /// patterns::rank(values, rows, cols, traversal), where `values` are
  /// get(stream)'s: ranked at most once per stream and traversal while
  /// the table holds it or ranks it.
  [[nodiscard]] SharedRanking ranking(const ValueStream& stream,
                                      std::span<const float> values,
                                      std::size_t rows, std::size_t cols,
                                      patterns::Traversal traversal) const;

 private:
  ValuesMemoTable* table_;
  ScenarioKind kind_;
  const char* trace_key_;
};

}  // namespace gpupower::core
