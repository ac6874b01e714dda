// Deterministic shared-memory parallelism for the mapping hot loops.
//
// A single process-wide worker pool executes `parallel_for` loops with
// *static chunking*: the iteration space [0, n) is split into fixed chunks
// of `grain` indices, so chunk boundaries depend only on (n, grain) — never
// on the number of worker threads.  Workers pull chunk indices from an
// atomic counter, but every chunk writes only to its own slice (or its own
// per-chunk accumulator slot, reduced by the caller in ascending chunk
// order), so results are byte-identical for any thread count, including 1.
// This is the determinism contract every parallel kernel in src/core relies
// on; see DESIGN.md §"Distance-plane engine".
//
// The pool size comes from TOPOMAP_THREADS (env, 1..kMaxThreads) or
// hardware concurrency, and can be changed at runtime with
// set_num_threads().  With one thread — or when called from inside a
// worker — loops run inline with zero synchronization overhead.
#pragma once

#include <functional>
#include <string>

namespace topomap::support {

/// Largest pool size TOPOMAP_THREADS may ask for.
inline constexpr int kMaxThreads = 256;

/// The pool size TOPOMAP_THREADS=`value` asks for: the whole of `value` as
/// an integer in 1..kMaxThreads.  Throws precondition_error naming the
/// variable otherwise.  Starts no thread.
int parse_thread_count(const std::string& value);

/// The pool size the environment asks for: parse_thread_count of
/// TOPOMAP_THREADS when it is set, else hardware concurrency (at least 1).
/// Starts no thread; binaries call it at start-up so a bad value fails
/// before any work is done.
int configured_num_threads();

/// Current worker count (>= 1).  First call initializes the pool from the
/// TOPOMAP_THREADS environment variable, defaulting to hardware concurrency.
int num_threads();

/// Resize the pool.  n >= 1; n == 1 disables all threading.  Not
/// thread-safe against concurrent parallel_for calls — call from the main
/// thread between parallel regions (tests and benches do).
void set_num_threads(int n);

/// Number of chunks `parallel_for` will create for an n-sized loop with the
/// given grain (both clamped to >= 1).  Callers allocating per-chunk
/// accumulator slots size them with this.
int parallel_chunk_count(int n, int grain);

/// Marks the current thread as an execution context whose parallel_for
/// calls run inline, exactly as if the pool had one thread.  The process
/// pool has a single in-flight job slot, so two threads submitting pooled
/// loops concurrently is not supported — request-level concurrency (the
/// topomapd worker threads, each running an independent mapping kernel)
/// instead pins each request to its own thread with an InlineScope.  The
/// determinism contract makes this free of result skew: inline execution
/// is byte-identical to any pool width.  Scopes nest; the destructor
/// restores the previous state.
class InlineScope {
 public:
  InlineScope();
  ~InlineScope();
  InlineScope(const InlineScope&) = delete;
  InlineScope& operator=(const InlineScope&) = delete;

 private:
  bool prev_;
};

namespace detail {

/// True when loops must run inline on the calling thread: a single-worker
/// pool, a nested call from inside a pool chunk, or an InlineScope.  The
/// inline path must cost no more than a plain loop, so it must not pay a
/// std::function allocation — the templates below check this first and
/// only type-erase on the pooled path.
bool use_inline();

/// Pooled execution of body(chunk, begin, end); n > 0, grain >= 1.
void run_pooled(int n, int grain,
                const std::function<void(int, int, int)>& body);

}  // namespace detail

/// Run body(chunk, begin, end) for every chunk of [0, n), where
/// [begin, end) is chunk `chunk`'s index range.  Chunks may run
/// concurrently and in any order; the caller's thread participates.  The
/// first exception thrown by any chunk is rethrown on the calling thread
/// after the loop drains.  Reentrant calls from inside a chunk run inline.
template <class Body>
void parallel_for_chunks(int n, int grain, Body&& body) {
  if (n <= 0) return;
  if (grain < 1) grain = 1;
  if (detail::use_inline()) {
    const int chunks = (n + grain - 1) / grain;
    for (int c = 0; c < chunks; ++c) {
      const int begin = c * grain;
      const int end = begin + grain < n ? begin + grain : n;
      body(c, begin, end);
    }
    return;
  }
  detail::run_pooled(n, grain, std::function<void(int, int, int)>(
                                   [&body](int c, int begin, int end) {
                                     body(c, begin, end);
                                   }));
}

/// parallel_for_chunks without the chunk index: body(begin, end).
template <class Body>
void parallel_for(int n, int grain, Body&& body) {
  parallel_for_chunks(
      n, grain, [&body](int, int begin, int end) { body(begin, end); });
}

}  // namespace topomap::support
