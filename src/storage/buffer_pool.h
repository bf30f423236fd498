#ifndef SETM_STORAGE_BUFFER_POOL_H_
#define SETM_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "storage/page.h"
#include "storage/storage_backend.h"

namespace setm {

class BufferPool;

/// RAII handle to a pinned buffer frame.
///
/// The frame stays pinned (ineligible for eviction) while at least one guard
/// references it. Call `MarkDirty()` after mutating the page so the pool
/// writes it back on eviction/flush. Guards are movable but not copyable.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(BufferPool* pool, size_t frame_index, PageId id, Page* page)
      : pool_(pool), frame_index_(frame_index), id_(id), page_(page) {}
  ~PageGuard() { Release(); }

  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  PageGuard(PageGuard&& other) noexcept { *this = std::move(other); }
  PageGuard& operator=(PageGuard&& other) noexcept;

  /// True when the guard references a frame.
  bool valid() const { return page_ != nullptr; }

  /// The buffered page contents (mutable; pair writes with MarkDirty()).
  Page* page() const { return page_; }

  /// Page id of the pinned page.
  PageId id() const { return id_; }

  /// Flags the page for write-back on eviction or flush.
  void MarkDirty();

  /// Unpins early (idempotent); the guard becomes invalid.
  void Release();

 private:
  BufferPool* pool_ = nullptr;
  size_t frame_index_ = 0;
  PageId id_ = kInvalidPageId;
  Page* page_ = nullptr;
};

/// Fixed-capacity page cache over a StorageBackend with LRU replacement.
///
/// All page traffic of the engine flows through a pool, so the backend's
/// IoStats ledger reflects misses only — exactly the "page accesses" the
/// paper counts. Pool capacity is the knob for the buffer-size ablation.
///
/// Thread safety: all pool bookkeeping (page table, LRU, pin counts, frame
/// metadata) is guarded by an internal mutex, so guards may be fetched and
/// released from concurrent threads — threaded mines pin pages of
/// distinct table heaps from worker threads. The *contents* of a pinned
/// page are not synchronized by the pool: callers that share one page
/// across threads must coordinate their own reads/writes (the engine never
/// does — each worker owns its tables and sort runs).
class BufferPool {
 public:
  /// `capacity` is in frames (pages). The backend must outlive the pool.
  BufferPool(StorageBackend* backend, size_t capacity);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pins the given page, reading it from the backend on a miss.
  Result<PageGuard> FetchPage(PageId id);

  /// Pins an already-allocated page *without* reading it from the backend
  /// on a miss, for callers that fully overwrite the page (manifest
  /// rewrites reusing a retired chain). Skipping the read keeps pointless
  /// read traffic out of the IoStats ledger. The frame comes back zeroed
  /// but *clean* — the caller pairs its overwrite with MarkDirty() as
  /// usual — so abandoning the page before writing (a later step of the
  /// rewrite failed) leaves the on-disk content untouched rather than
  /// risking a flush of zeros over it. On a hit the cached contents are
  /// returned unchanged. Caveat of the abandoned-miss case: the zeroed
  /// frame stays cached, shadowing the disk content — only use this for
  /// pages whose sole readers are future overwriters (retired manifest
  /// chains qualify; heap pages would not).
  Result<PageGuard> FetchPageForOverwrite(PageId id);

  /// Allocates a fresh zeroed page in the backend and pins it (dirty).
  /// When an allocation hook is set (see SetAllocationHook) and yields a
  /// recycled page id, that page is reused instead of extending the backend.
  Result<PageGuard> NewPage();

  /// Installs a recycler consulted by NewPage before the backend: return a
  /// previously freed PageId to reuse it, or kInvalidPageId to fall through
  /// to a fresh backend allocation. Called with the pool mutex held, so the
  /// hook must not call back into the pool. A recycled page must be
  /// *unreferenced*: no checkpointed structure may reach it and no guard may
  /// still pin it (the database's free list guarantees both).
  void SetAllocationHook(std::function<PageId()> hook) {
    std::lock_guard<std::mutex> lock(mutex_);
    allocation_hook_ = std::move(hook);
  }

  /// Number of frames currently holding unflushed modifications — lets the
  /// checkpoint detect "nothing changed" and skip the superblock flip.
  uint64_t DirtyPageCount() const;

  /// Writes back one page if cached and dirty.
  Status FlushPage(PageId id);

  /// Writes back every dirty frame (pages stay cached).
  Status FlushAll();

  /// Number of frames.
  size_t capacity() const { return frames_.size(); }

  /// Point-in-time cache statistics of this pool instance. The same events
  /// also feed the process-wide metrics registry (setm_pool_* counters);
  /// the instance view is what `setm_mine --stats` prints per database.
  struct PoolStats {
    uint64_t hits = 0;    ///< fetches served from a resident frame
    uint64_t misses = 0;  ///< fetches that went to the backend
    uint64_t evictions = 0;         ///< frames recycled for another page
    uint64_t dirty_writebacks = 0;  ///< dirty pages written to the backend
    /// Poisoned-victim skips: eviction candidates whose dirty write-back
    /// failed and that were left resident for a later retry.
    uint64_t eviction_retries = 0;
  };
  PoolStats Stats() const;

  /// Cache statistics.
  uint64_t hits() const;
  uint64_t misses() const;

  /// The underlying backend (for direct allocation checks in tests).
  StorageBackend* backend() const { return backend_; }

 private:
  friend class PageGuard;

  struct Frame {
    Page page;
    PageId id = kInvalidPageId;
    uint32_t pin_count = 0;
    bool dirty = false;
    // Position in lru_ when pin_count == 0 and the frame holds a page.
    std::list<size_t>::iterator lru_pos;
    bool in_lru = false;
  };

  void Unpin(size_t frame_index);
  void MarkDirty(size_t frame_index);
  /// Finds a frame to (re)use: a free frame, else the least recently used
  /// unpinned victim whose dirty write-back (if needed) succeeds. Victims
  /// with failing write-backs are skipped — they stay resident and dirty
  /// for a later retry — and the next LRU candidate is tried, so a single
  /// poisoned page cannot wedge eviction. Fails only when every unpinned
  /// frame is dirty on a failing backend (first write error) or all frames
  /// are pinned (ResourceExhausted); capacity never shrinks on any path.
  /// Caller must hold mutex_.
  Result<size_t> GetVictimFrameLocked();

  StorageBackend* backend_;
  std::function<PageId()> allocation_hook_;
  std::vector<Frame> frames_;
  mutable std::mutex mutex_;
  std::vector<size_t> free_frames_;
  std::list<size_t> lru_;  // front = most recently unpinned
  std::unordered_map<PageId, size_t> page_table_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
  uint64_t dirty_writebacks_ = 0;
  uint64_t eviction_retries_ = 0;

  // Process-wide series (resolved once at construction; all pools share
  // them, mirroring the instance counters above).
  obs::Counter* metric_hits_;
  obs::Counter* metric_misses_;
  obs::Counter* metric_evictions_;
  obs::Counter* metric_dirty_writebacks_;
  obs::Counter* metric_eviction_retries_;
};

}  // namespace setm

#endif  // SETM_STORAGE_BUFFER_POOL_H_
