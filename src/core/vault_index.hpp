// Sequential fat-node index resident in a single vault.
//
// This is the per-vault building block of the partitioned PIM skip list
// (Section 4.2). Only the vault's PIM core touches it, so it needs no
// synchronization: plain reads and writes, exactly the operations the
// paper's PIM cores support. The paper's per-vault structure is a skip list
// with one key per node, and the simulator keeps that layout
// (sim/ds/skiplist_common.hpp) so its Table 2 / Figure 4 rows use the
// paper's beta. The runtime stores each vault's keys in a B+-tree of fat
// nodes instead, after PIM-tree's and PIM-base's chunked nodes: every node
// is one 128-byte block from the vault arena, the largest single read
// request of HMC 1.0, so one vault access brings back a block of keys
// rather than one.
//
// Windows. The index splits its key domain [key_min, key_max] into up to
// R = min(4096, span) equal windows (the width rounds up, so the last
// window may be narrower and a span that 4096 does not divide may get
// fewer), the paper's equal-range split (one range per vault, Section 4.2)
// carried one level down, and gives each window its own tree. Every
// window's root is a block at a fixed address in one contiguous R x
// 128-byte region reserved at construction, so the core computes a key's
// root with arithmetic and reads nothing to find it; a search then pays
// one read per node of a small tree instead of one per level of a tree
// over the whole vault. With R this wide, a window of a uniform key set
// rarely outgrows one root leaf, and a search reads one node. A window's
// tree never holds more keys than one tree over the whole vault would, so
// a clustered key set costs no more than it would without windows. The
// region spans 512 KB per index at R = 4096, but it starts as zero pages
// of the vault's arena (Vault::allocate_zeroed) and an all-zero block is
// an empty leaf (count 0, not inner), so construction writes nothing and a
// page of 32 roots becomes resident only when a key lands in one of its
// windows.
//
// Offsets. A node stores each key and separator as its 32-bit offset from
// its window's first key, not as the 64-bit key: every key of a tree
// shares that window, so the offset is all that tells two keys apart, and
// halving the entry is what fits a block with 31 keys instead of 15. The
// index converts at its edges: a descent turns the key into its window and
// offset once, and every key it hands back (first_at_least, extractions)
// is the window's start plus the stored offset. Every vault of a
// partitioned skip list windows the same domain, so a migrated key has the
// same offset on both sides.
//
// Domain contract. A window may span at most 2^32 keys (kMaxWindowKeys),
// so key_max - key_min must stay below kMaxKeySpan = 4096 x 2^32 = 2^44;
// the constructor throws std::invalid_argument otherwise. A key outside
// [key_min, key_max] has no offset: contains and remove of one return
// false at the charge of a miss in the first or last window (the one the
// key's side of the domain would fall in), add and insert_ascending assert
// it never comes (and, without asserts, insert nothing), and
// first_at_least / extract_first_at_least read a key below key_min as
// key_min and one above key_max as past every key.
//
// Shape. A leaf holds up to kLeafKeys = 31 sorted offsets. An inner node
// holds up to kFanout = 15 (separator, child) entries; separator i is a
// lower bound of child i's offsets, and entry 0's separator is never
// compared, so child 0 takes every key below separator 1. A child is named
// by its 32-bit offset in the vault arena (Vault::offset_of), not a 64-bit
// pointer. All leaves of a window sit at the same depth.
// - A full node splits in half, and the split cascades up. A root split
//   keeps the root block: it copies the root into a new left child and
//   makes the root an inner node over the two halves, one level taller.
// - An emptied node is freed and its parent entry removed; a root left
//   with one child collapses by copying that child into the root block.
//   Nodes never merge otherwise.
// - There are no sibling links: a scan that runs off a leaf re-descends to
//   the next separator on its path, and off a window's last leaf to the
//   next window's root.
//
// Charge rule (the paper's beta). Each charged operation takes the hop-cost
// hook `charge(n)` of the other sequential cores (core/skip_list.hpp, DESIGN
// §5j) and calls it once with its access count, which the caller turns into
// n Lpim: one access per node read, plus one per node a split creates (a
// root split creates two). Writes to nodes already read on the path are not
// charged; a collapse reads the child it copies, so it pays one access when
// that child is not already on the path. A finger (InsertCursor, or the
// extraction finger behind extract_first_at_least) that still holds its
// leaf reads nothing new. An ascending insert sweep pays for the leaves its
// splits create, and an extraction sweep steps from a drained leaf to the
// next one along its path (about one read per leaf), so both pay about one
// access per leaf, not per key, plus one root read per window they enter.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/set_op.hpp"
#include "runtime/vault.hpp"

namespace pimds::core {

/// Hop-cost hook that charges nothing (uncharged callers and tests).
struct NoCharge {
  constexpr void operator()(std::uint64_t) const noexcept {}
};

class VaultIndex {
 public:
  static constexpr std::size_t kNodeBytes = 128;
  static constexpr int kLeafKeys = 31;
  static constexpr int kFanout = 15;
  /// Windows a key domain is split into, at most (one per key below that).
  static constexpr std::uint64_t kMaxWindows = 4096;
  /// Keys one window may span: a node stores 32-bit offsets into it.
  static constexpr std::uint64_t kMaxWindowKeys = std::uint64_t{1} << 32;
  /// Keys a domain may span: key_max - key_min < kMaxKeySpan.
  static constexpr std::uint64_t kMaxKeySpan = kMaxWindows * kMaxWindowKeys;
  /// Path length bound. A root split needs a full root, and refilling a
  /// split node takes at least three splits one level down, so height h
  /// needs over 3^(h-2) leaf splits: 32 levels are out of reach.
  static constexpr int kMaxDepth = 32;

 private:
  struct Node;
  /// One root-to-leaf path in `window`'s tree: node[0] is the root,
  /// node[height-1] the leaf, slot[l] the child entry taken at inner level l.
  struct Path {
    std::uint32_t window = 0;
    Node* node[kMaxDepth] = {};
    std::uint8_t slot[kMaxDepth] = {};
  };
  /// A held leaf: its path, the key range [lo, hi) it answers for, and the
  /// mutation epoch it was taken at.
  struct Finger {
    Path path;
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    bool has_hi = false;
    bool valid = false;
    std::uint64_t epoch = 0;
  };

 public:
  /// An index whose windows split [key_min, key_max]. Throws
  /// std::length_error if the vault is too large for 32-bit child offsets
  /// (Vault::kMaxOffsetCapacity), and std::invalid_argument if
  /// key_max < key_min or the domain spans more than kMaxKeySpan keys.
  VaultIndex(runtime::Vault& vault, std::uint64_t key_min,
             std::uint64_t key_max);

  VaultIndex(const VaultIndex&) = delete;
  VaultIndex& operator=(const VaultIndex&) = delete;

  /// Each charged call passes its node accesses to `charge(n)` once (see
  /// the charge rule above).
  template <typename Charge = NoCharge>
  bool add(std::uint64_t key, Charge&& charge = {}) {
    Path path;
    std::uint64_t count = descend(key, path);
    const bool inserted = insert_at(path, key, count);
    charge(count);
    return inserted;
  }
  template <typename Charge = NoCharge>
  bool remove(std::uint64_t key, Charge&& charge = {}) {
    Path path;
    std::uint64_t reads = descend(key, path);
    const int pos = find(path, key);
    if (pos >= 0) erase_at(path, pos, path, reads);
    charge(reads);
    return pos >= 0;
  }
  template <typename Charge = NoCharge>
  bool contains(std::uint64_t key, Charge&& charge = {}) const {
    Path path;
    charge(descend(key, path));
    return find(path, key) >= 0;
  }
  /// One set operation (core::SkipList's shape, without the tower RNG).
  template <typename Charge>
  bool execute(SetOp op, std::uint64_t key, Charge&& charge) {
    if (op == SetOp::kAdd) return add(key, charge);
    if (op == SetOp::kRemove) return remove(key, charge);
    return contains(key, charge);
  }

  /// Smallest key >= `key`, if any (migration cursor scans, Section 4.2.1).
  std::optional<std::uint64_t> first_at_least(std::uint64_t key) const;

  /// Remove and return the smallest key >= `key`. An internal finger holds
  /// the leaf of the previous extraction, so an ascending sweep pays about
  /// one read per leaf it drains.
  template <typename Charge = NoCharge>
  std::optional<std::uint64_t> extract_first_at_least(std::uint64_t key,
                                                      Charge&& charge = {}) {
    std::uint64_t reads = 0;
    const std::optional<std::uint64_t> out = extract_at_least(key, reads);
    charge(reads);
    return out;
  }

  /// Finger for ascending bulk inserts, the migration target's dual of
  /// extract_first_at_least. Self-invalidates when any other operation
  /// mutates the index.
  class InsertCursor {
   public:
    InsertCursor() = default;

   private:
    friend class VaultIndex;
    Finger finger_;
  };

  /// Insert `key` (>= every key previously inserted through `cursor`).
  template <typename Charge = NoCharge>
  bool insert_ascending(InsertCursor& cursor, std::uint64_t key,
                        Charge&& charge = {}) {
    Finger& f = cursor.finger_;
    const std::uint64_t reads = hold(f, key);
    std::uint64_t count = reads;
    const bool inserted = insert_at(f.path, key, count);
    // A split moved the leaf's range; the path followed the key through it.
    if (count != reads) bound(f);
    f.epoch = mutation_epoch_;  // our own insert keeps the finger
    charge(count);
    return inserted;
  }

  std::size_t size() const noexcept { return size_; }
  /// Levels from `key`'s window root to its leaves: what a contains(key)
  /// charges.
  int height(std::uint64_t key) const noexcept {
    return height_[window_of(key)];
  }
  /// The tallest window's height.
  int height() const noexcept;
  /// Windows the domain is split into, and the first key of window `w`.
  std::uint32_t windows() const noexcept { return windows_; }
  std::uint64_t window_start(std::uint32_t w) const noexcept {
    return key_min_ + w * width_;
  }

 private:
  /// A key's offset from its window's first key.
  using Offset = std::uint32_t;

  struct Node {
    struct Inner {
      Offset sep[kFanout];
      std::uint32_t child[kFanout];  // vault offsets
    };
    std::uint16_t count;
    bool inner;  // false in a zero block: an empty leaf
    union {
      Offset key[kLeafKeys];
      Inner in;
    };
  };
  static_assert(sizeof(Node) == kNodeBytes, "a node is one vault block");

  /// extract_first_at_least's work; sets the accesses it charges.
  std::optional<std::uint64_t> extract_at_least(std::uint64_t key,
                                                std::uint64_t& reads);

  Node* make_node(bool inner);
  Node* child(const Node* inner, int slot) const {
    return static_cast<Node*>(vault_.at_offset(inner->in.child[slot]));
  }
  std::uint32_t ref(const Node* node) const { return vault_.offset_of(node); }
  void free_node(Node* node);
  std::uint32_t window_of(std::uint64_t key) const noexcept;
  bool in_domain(std::uint64_t key) const noexcept {
    return key >= key_min_ && key <= key_max_;
  }
  /// `key`'s offset in window `w`, saturated to the window's offset range
  /// for a key outside the domain.
  Offset offset_in(std::uint32_t w, std::uint64_t key) const noexcept;
  Node* root(std::uint32_t window) const noexcept { return roots_ + window; }
  /// First slot of `leaf` holding an offset >= `off` (its count if none).
  static int seek(const Node* leaf, Offset off);
  /// Slot of `key` in the path's leaf, or -1 (always for a key outside the
  /// domain).
  int find(const Path& path, std::uint64_t key) const;

  /// Fill `path` toward `key`; returns the node reads (the height).
  std::uint64_t descend(std::uint64_t key, Path& path) const;
  /// Recompute `f`'s key range from its path and stamp the epoch.
  void bound(Finger& f) const;
  /// Point `f` at the leaf for `key`, re-descending unless it holds it.
  std::uint64_t hold(Finger& f, std::uint64_t key) const;
  /// Insert into the path's leaf, splitting as needed; the path follows
  /// `key`. False (and no change) if the key is present.
  bool insert_at(Path& path, std::uint64_t key, std::uint64_t& created);
  /// Hang `right`, just split off the path's node at `level`, into its
  /// parent; `follow` says the path now runs through `right`.
  void link_split(Path& path, int level, Node* right, bool follow,
                  std::uint64_t& created);
  /// Remove the leaf key at `pos`; free emptied nodes, collapse the root.
  /// A collapsed child costs `reads` one unless `held` already runs through
  /// it. Returns the level of the node that lost a child entry, or -1.
  int erase_at(Path& path, int pos, const Path& held, std::uint64_t& reads);
  /// Step `path` to the next leaf, one read per node it descends through.
  /// Returns the level it forked at, or -1 past the last leaf.
  int next_leaf(Path& path, std::uint64_t& reads) const;

  runtime::Vault& vault_;
  std::uint64_t key_min_;
  std::uint64_t key_max_;
  std::uint64_t width_ = 1;      // keys per window
  std::uint32_t windows_ = 1;
  Node* roots_ = nullptr;        // windows_ contiguous root blocks
  std::vector<std::uint8_t> height_;  // per window
  std::size_t size_ = 0;
  std::uint64_t mutation_epoch_ = 0;
  Finger extract_finger_;
};

}  // namespace pimds::core
