// ResultStore: the content-addressed on-disk result store that makes the
// experiment engine's cache survive the process.  Entries are keyed by the
// kind-prefixed `canonical_scenario_key` (`<kind>\x1f` + the compact,
// normalised spec JSON) — stable across processes because the spec
// serialisation round-trips every double exactly — and hold the
// kind's full-fidelity result JSON (scenario_result_to_json), so a store
// hit reproduces the original reduction bit-identically.
//
// Layout: one file per entry under the store directory,
//
//   <dir>/<fnv1a64(key) as 16 hex digits>.json
//   { "gpupower_store": 1, "kind": "fleet", "key": "<canonical key>",
//     "result": { ... } }
//
// The full canonical key is stored inside the entry and verified on every
// read, so a (vanishingly unlikely) filename-hash collision degrades to a
// miss, never to a wrong result.
//
// Durability and corruption tolerance:
//  - writes go to a temp file in the same directory, are fsync'd, then
//    renamed over the final path — readers never observe a torn entry, and
//    an interrupted writer leaves at worst a stale .tmp file;
//  - any load failure (missing file, truncated/garbled JSON, schema or key
//    mismatch, codec rejection) is a miss: the engine recomputes and
//    rewrites.  The store never throws on bad data.
//
// Concurrency: safe for any number of threads and processes sharing one
// directory.  Two writers racing on the same key both write identical
// bytes (deterministic results), and rename is atomic, so the last one
// wins harmlessly.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

#include "core/scenario.hpp"

namespace gpupower::core {

struct StoreOptions {
  /// Store directory (created on first save).  Empty disables the store.
  std::string dir;
  /// Entry-size budget in bytes, enforced by oldest-mtime-first eviction
  /// when the store opens (see evict()); 0 = unlimited.
  std::size_t max_bytes = 0;
};

class ResultStore {
 public:
  /// A default-constructed store is disabled: every load misses, every
  /// save is a no-op.
  ResultStore() = default;
  explicit ResultStore(StoreOptions options);

  [[nodiscard]] bool enabled() const noexcept { return !options_.dir.empty(); }
  [[nodiscard]] const std::string& dir() const noexcept { return options_.dir; }

  /// Entry file path for a canonical key (valid even when disabled).
  [[nodiscard]] std::string entry_path(std::string_view canonical_key) const;

  /// Looks the key up; true and fills `out` only when the entry exists, is
  /// intact, carries the exact key, and parses through the kind's result
  /// codec.  Everything else — including a corrupt file — is a miss.
  [[nodiscard]] bool load(std::string_view canonical_key, ScenarioKind kind,
                          ScenarioResult& out) const;

  /// Persists a completed result under its key (atomic temp-file+rename,
  /// fsync'd).  Returns false when the store is disabled or the write
  /// fails; failures are non-fatal by design (the result stays in memory).
  bool save(std::string_view canonical_key, const ScenarioResult& result) const;

  /// Sweeps orphaned writer temp files (`*.json.tmp.<pid>.<n>`) that a
  /// crashed or killed writer left behind.  Only files older than
  /// `min_age` go — a live writer's temp file exists for milliseconds
  /// between create and rename, so the default margin can never race one.
  /// Returns the number removed; never throws (sweep failures are
  /// ignored, the litter is retried on the next open).  Runs
  /// automatically when a store opens on an existing directory.
  std::size_t compact(
      std::chrono::seconds min_age = std::chrono::minutes(10)) const;

  /// LRU size cap: while the store's entry files total more than
  /// `max_bytes`, removes oldest-mtime entries (filename breaks ties, so
  /// the sweep order is deterministic).  An evicted entry is only a
  /// future store miss — the engine recomputes and rewrites it.  Returns
  /// the number of entries removed; never throws.  Runs automatically on
  /// open when StoreOptions::max_bytes is set
  /// (GPUPOWER_STORE_MAX_BYTES), under a `store.evict` span with the
  /// removals in the `store.evictions` counter.
  std::size_t evict(std::size_t max_bytes) const;

 private:
  StoreOptions options_;
};

/// FNV-1a 64-bit hash (the store's filename hash; exposed for tests).
[[nodiscard]] std::uint64_t fnv1a64(std::string_view text) noexcept;

/// Atomically replaces `path` with `text`: writes a sibling temp file,
/// fsyncs it, and renames it over the target, so readers (and interrupted
/// runs) never observe a torn file.  Creates missing parent directories.
/// Returns false with the failing step in `error` (pass nullptr to ignore).
bool atomic_write_text(const std::string& path, std::string_view text,
                       std::string* error = nullptr);

}  // namespace gpupower::core
