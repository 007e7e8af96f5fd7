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
// Shape. A leaf holds up to kLeafKeys sorted keys. An inner node holds up
// to kFanout (separator, child) entries; separator i is a lower bound of
// child i's keys, and entry 0's separator is never compared, so child 0
// takes every key below separator 1. A child is named by its 32-bit offset
// in the vault arena (Vault::offset_of), not a 64-bit pointer, which is
// what fits 10 entries into a block instead of 7. All leaves sit at the
// same depth.
// - A full node splits in half, and the split cascades up; a root split
//   adds a level.
// - An emptied node is freed and its parent entry removed; a root left
//   with one child collapses into it. Nodes never merge otherwise.
// - There are no sibling links: a scan that runs off a leaf re-descends to
//   the next separator on its path.
//
// Charge rule (the paper's beta, reported through `steps` so the caller
// charges one Lpim per unit): one access per node read, plus one per node a
// split creates. Writes to nodes already read on the path are not charged.
// A finger (InsertCursor, or the extraction finger behind
// extract_first_at_least) that still holds its leaf reads nothing new. An
// ascending insert sweep pays for the leaves its splits create, and an
// extraction sweep steps from a drained leaf to the next one along its path
// (about one read per leaf), so both pay about one access per leaf, not per
// key.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "runtime/vault.hpp"

namespace pimds::core {

class VaultIndex {
 public:
  static constexpr std::size_t kNodeBytes = 128;
  static constexpr int kLeafKeys = 15;
  static constexpr int kFanout = 10;
  /// Path length bound. A root split needs a full root, and refilling a
  /// split node takes at least three splits one level down, so height h
  /// needs over 3^(h-2) leaf splits: 32 levels are out of reach.
  static constexpr int kMaxDepth = 32;

 private:
  struct Node;
  /// One root-to-leaf path: node[0] is the root, node[height-1] the leaf,
  /// slot[l] the child entry taken at inner level l.
  struct Path {
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
  /// Throws std::length_error if the vault is too large for 32-bit child
  /// offsets (Vault::kMaxOffsetCapacity).
  explicit VaultIndex(runtime::Vault& vault);

  VaultIndex(const VaultIndex&) = delete;
  VaultIndex& operator=(const VaultIndex&) = delete;

  /// `steps`, when non-null, accumulates the charged node accesses (see the
  /// charge rule above).
  bool add(std::uint64_t key, std::uint64_t* steps = nullptr);
  bool remove(std::uint64_t key, std::uint64_t* steps = nullptr);
  bool contains(std::uint64_t key, std::uint64_t* steps = nullptr) const;

  /// Smallest key >= `key`, if any (migration cursor scans, Section 4.2.1).
  std::optional<std::uint64_t> first_at_least(std::uint64_t key) const;

  /// Remove and return the smallest key >= `key`. An internal finger holds
  /// the leaf of the previous extraction, so an ascending sweep pays about
  /// one read per leaf it drains.
  std::optional<std::uint64_t> extract_first_at_least(
      std::uint64_t key, std::uint64_t* steps = nullptr);

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
  bool insert_ascending(InsertCursor& cursor, std::uint64_t key,
                        std::uint64_t* steps = nullptr);

  std::size_t size() const noexcept { return size_; }
  /// Levels from the root to the leaves: what a contains() charges.
  int height() const noexcept { return height_; }

 private:
  struct Node {
    struct Inner {
      std::uint64_t sep[kFanout];
      std::uint32_t child[kFanout];  // vault offsets
    };
    std::uint16_t count;
    bool leaf;
    union {
      std::uint64_t key[kLeafKeys];
      Inner in;
    };
  };
  static_assert(sizeof(Node) <= kNodeBytes, "a node is one vault block");

  Node* make_node(bool leaf);
  Node* child(const Node* inner, int slot) const {
    return static_cast<Node*>(vault_.at_offset(inner->in.child[slot]));
  }
  std::uint32_t ref(const Node* node) const { return vault_.offset_of(node); }
  void free_node(Node* node);
  /// First slot of `leaf` holding a key >= `key` (its count if none).
  static int seek(const Node* leaf, std::uint64_t key);

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
  /// Returns the level of the node that lost a child entry, or -1.
  int erase_at(Path& path, int pos);
  /// Step `path` to the next leaf, one read per node it descends through.
  /// Returns the level it forked at, or -1 past the last leaf.
  int next_leaf(Path& path, std::uint64_t& reads) const;

  runtime::Vault& vault_;
  Node* root_ = nullptr;
  int height_ = 1;
  std::size_t size_ = 0;
  std::uint64_t mutation_epoch_ = 0;
  Finger extract_finger_;
};

}  // namespace pimds::core
