// ParallelFor: the minimal execution abstraction the construction-side
// kernel (the metro tiers' sharded trace generation) and the sweeps'
// fan-outs are written against.
//
// A ParallelFor runs `f(shard)` for every shard in [0, num_shards)
// exactly once and returns only when all shards have completed. Shards
// must be independent: implementations may run them in any order, on any
// thread, concurrently. The serial executor (serial_parallel_for) runs
// them in index order on the calling thread and is the reference
// implementation every parallel executor must be observationally
// equivalent to — which is trivially true for the sharded kernels in this
// repo, because each shard writes only shard-owned state and merge steps
// are deterministic in shard index (DESIGN.md §9).
//
// This lives in util/ (not engine/) so that synth/ can expose a sharded
// build without depending on the sweep engine's thread pool;
// engine::parallel_for (thread_pool.hpp) adapts a ThreadPool to this
// signature.

#pragma once

#include <cstddef>
#include <functional>

namespace psn::util {

/// Runs f(shard) for shard in [0, num_shards); returns when all shards
/// completed. See file comment for the implementation contract.
using ParallelFor =
    std::function<void(std::size_t num_shards,
                       const std::function<void(std::size_t)>& f)>;

/// The reference executor: every shard on the calling thread, in index
/// order. Sharded builds run under this in their "serial" mode, so
/// serial and pooled executions differ only in scheduling.
[[nodiscard]] inline ParallelFor serial_parallel_for() {
  return [](std::size_t num_shards,
            const std::function<void(std::size_t)>& f) {
    for (std::size_t shard = 0; shard < num_shards; ++shard) f(shard);
  };
}

}  // namespace psn::util
