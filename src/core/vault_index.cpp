#include "core/vault_index.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <stdexcept>

namespace pimds::core {

namespace {

template <typename T>
void insert_slot(T* arr, int count, int pos, T value) {
  std::copy_backward(arr + pos, arr + count, arr + count + 1);
  arr[pos] = value;
}

template <typename T>
void erase_slot(T* arr, int count, int pos) {
  std::copy(arr + pos + 1, arr + count, arr + pos);
}

}  // namespace

VaultIndex::VaultIndex(runtime::Vault& vault, std::uint64_t key_min,
                       std::uint64_t key_max)
    : vault_(vault), key_min_(key_min), key_max_(key_max) {
  if (vault.capacity() > runtime::Vault::kMaxOffsetCapacity) {
    throw std::length_error("VaultIndex: vault too large for 32-bit offsets");
  }
  if (key_max < key_min) {
    throw std::invalid_argument("VaultIndex: key_max below key_min");
  }
  // span - 1, which cannot overflow even for the whole key space.
  const std::uint64_t last = key_max - key_min;
  width_ = last / (last < kMaxWindows ? last + 1 : kMaxWindows) + 1;
  if (width_ > kMaxWindowKeys) {
    throw std::invalid_argument(
        "VaultIndex: a window would span more than 2^32 keys");
  }
  windows_ = static_cast<std::uint32_t>(last / width_ + 1);
  // An all-zero block is an empty leaf, so the fresh region is R empty
  // roots as it stands, and a window's page is first touched when a key
  // lands in it.
  roots_ = static_cast<Node*>(
      vault_.allocate_zeroed(windows_ * sizeof(Node), alignof(Node)));
  height_.assign(windows_, 1);
}

std::uint32_t VaultIndex::window_of(std::uint64_t key) const noexcept {
  if (key <= key_min_) return 0;
  return static_cast<std::uint32_t>(
      std::min<std::uint64_t>((key - key_min_) / width_, windows_ - 1));
}

VaultIndex::Offset VaultIndex::offset_in(std::uint32_t w,
                                         std::uint64_t key) const noexcept {
  const std::uint64_t start = window_start(w);
  if (key <= start) return 0;
  return static_cast<Offset>(
      std::min<std::uint64_t>(key - start, kMaxWindowKeys - 1));
}

int VaultIndex::height() const noexcept {
  return *std::max_element(height_.begin(), height_.end());
}

VaultIndex::Node* VaultIndex::make_node(bool inner) {
  Node* node = static_cast<Node*>(vault_.allocate(sizeof(Node), alignof(Node)));
  node->count = 0;
  node->inner = inner;
  return node;
}

void VaultIndex::free_node(Node* node) {
  assert((node < roots_ || node >= roots_ + windows_) && "root blocks stay");
  vault_.deallocate(node, sizeof(Node), alignof(Node));
}

int VaultIndex::seek(const Node* leaf, Offset off) {
  return static_cast<int>(
      std::lower_bound(leaf->key, leaf->key + leaf->count, off) - leaf->key);
}

std::uint64_t VaultIndex::descend(std::uint64_t key, Path& path) const {
  path.window = window_of(key);
  const Offset off = offset_in(path.window, key);
  const int height = height_[path.window];
  Node* node = root(path.window);
  for (int level = 0; level < height - 1; ++level) {
    int s = node->count - 1;
    while (s > 0 && node->in.sep[s] > off) --s;
    path.node[level] = node;
    path.slot[level] = static_cast<std::uint8_t>(s);
    node = child(node, s);
  }
  path.node[height - 1] = node;
  return static_cast<std::uint64_t>(height);
}

void VaultIndex::bound(Finger& f) const {
  const std::uint32_t w = f.path.window;
  const std::uint64_t start = window_start(w);
  f.lo = w == 0 ? 0 : start;
  f.has_hi = false;
  for (int level = height_[w] - 2; level >= 0; --level) {
    const Node* node = f.path.node[level];
    const int s = f.path.slot[level];
    if (!f.has_hi && s + 1 < node->count) {
      f.hi = start + node->in.sep[s + 1];
      f.has_hi = true;
    }
    if (s > 0) f.lo = std::max(f.lo, start + node->in.sep[s]);
  }
  if (!f.has_hi && w + 1 < windows_) {
    f.hi = window_start(w + 1);
    f.has_hi = true;
  }
  f.valid = true;
  f.epoch = mutation_epoch_;
}

std::uint64_t VaultIndex::hold(Finger& f, std::uint64_t key) const {
  if (f.valid && f.epoch == mutation_epoch_ && key >= f.lo &&
      (!f.has_hi || key < f.hi)) {
    return 0;
  }
  const std::uint64_t reads = descend(key, f.path);
  bound(f);
  return reads;
}

bool VaultIndex::insert_at(Path& path, std::uint64_t key,
                           std::uint64_t& created) {
  assert(in_domain(key) && "key outside the index's domain");
  if (!in_domain(key)) return false;
  const Offset off = offset_in(path.window, key);
  const int level = height_[path.window] - 1;
  Node* leaf = path.node[level];
  if (level == 0) {
    // A root leaf may sit on a page no one has touched yet. Storing to it
    // before loading from it takes the page with one fault; a load first
    // would map the shared zero page and the insert's store would fault
    // again to copy it. The store writes what a leaf already holds.
    leaf->inner = false;
    std::atomic_signal_fence(std::memory_order_seq_cst);
  }
  int pos = seek(leaf, off);
  if (pos < leaf->count && leaf->key[pos] == off) return false;
  Node* right = nullptr;
  if (leaf->count == kLeafKeys) {
    constexpr int kHalf = kLeafKeys / 2;
    right = make_node(/*inner=*/false);
    ++created;
    std::copy(leaf->key + kHalf, leaf->key + kLeafKeys, right->key);
    right->count = kLeafKeys - kHalf;
    leaf->count = kHalf;
    if (pos >= kHalf) {
      leaf = right;
      pos -= kHalf;
    }
    path.node[level] = leaf;
  }
  insert_slot(leaf->key, leaf->count, pos, off);
  ++leaf->count;
  if (right != nullptr) link_split(path, level, right, leaf == right, created);
  ++size_;
  ++mutation_epoch_;
  return true;
}

void VaultIndex::link_split(Path& path, int level, Node* right, bool follow,
                            std::uint64_t& created) {
  const Offset sep = right->inner ? right->in.sep[0] : right->key[0];
  if (level == 0) {
    // Root split: the root block stays put. Its left half moves into a new
    // child, and the root becomes an inner node over the two halves.
    std::uint8_t& height = height_[path.window];
    assert(height < kMaxDepth);
    Node* top = root(path.window);
    Node* left = make_node(top->inner);
    ++created;
    *left = *top;
    top->inner = true;
    top->in.sep[0] = 0;  // entry 0's separator is never compared
    top->in.child[0] = ref(left);
    top->in.sep[1] = sep;
    top->in.child[1] = ref(right);
    top->count = 2;
    std::copy_backward(path.node, path.node + height, path.node + height + 1);
    std::copy_backward(path.slot, path.slot + height, path.slot + height + 1);
    path.node[0] = top;
    path.node[1] = follow ? right : left;
    path.slot[0] = follow ? 1 : 0;
    ++height;
    return;
  }
  Node* parent = path.node[level - 1];
  int at = path.slot[level - 1] + 1;  // the new entry goes after its left half
  int on = follow ? at : at - 1;      // the entry the path runs through
  Node* target = parent;
  Node* sibling = nullptr;
  if (parent->count == kFanout) {
    constexpr int kHalf = (kFanout + 1) / 2;
    sibling = make_node(/*inner=*/true);
    ++created;
    std::copy(parent->in.sep + kHalf, parent->in.sep + kFanout,
              sibling->in.sep);
    std::copy(parent->in.child + kHalf, parent->in.child + kFanout,
              sibling->in.child);
    sibling->count = kFanout - kHalf;
    parent->count = kHalf;
    if (at >= kHalf) {
      target = sibling;
      at -= kHalf;
    }
    if (on >= kHalf) {
      path.node[level - 1] = sibling;
      on -= kHalf;
    }
  }
  insert_slot(target->in.sep, target->count, at, sep);
  insert_slot(target->in.child, target->count, at, ref(right));
  ++target->count;
  path.slot[level - 1] = static_cast<std::uint8_t>(on);
  if (sibling != nullptr) {
    link_split(path, level - 1, sibling, path.node[level - 1] == sibling,
               created);
  }
}

int VaultIndex::erase_at(Path& path, int pos, const Path& held,
                         std::uint64_t& reads) {
  std::uint8_t& height = height_[path.window];
  int level = height - 1;
  Node* leaf = path.node[level];
  erase_slot(leaf->key, leaf->count, pos);
  --leaf->count;
  --size_;
  ++mutation_epoch_;
  int removed_at = -1;
  while (level > 0 && path.node[level]->count == 0) {
    free_node(path.node[level]);
    Node* parent = path.node[--level];
    erase_slot(parent->in.sep, parent->count, path.slot[level]);
    erase_slot(parent->in.child, parent->count, path.slot[level]);
    --parent->count;
    removed_at = level;
  }
  // Collapse: copy a lone child into the root block. The k-th child copied
  // sits at level k of the tree as it was, so that is where `held` would
  // have read it.
  Node* top = root(path.window);
  for (int dropped = 1; height > 1 && top->count == 1; ++dropped) {
    Node* only = child(top, 0);
    if (held.node[dropped] != only) ++reads;
    *top = *only;
    free_node(only);
    --height;
  }
  return removed_at;
}

int VaultIndex::next_leaf(Path& path, std::uint64_t& reads) const {
  const int height = height_[path.window];
  int fork = height - 2;
  while (fork >= 0 && path.slot[fork] + 1 >= path.node[fork]->count) --fork;
  if (fork < 0) return -1;
  ++path.slot[fork];
  for (int level = fork; level < height - 1; ++level) {
    path.node[level + 1] = child(path.node[level], path.slot[level]);
    ++reads;
    if (level + 1 < height - 1) path.slot[level + 1] = 0;
  }
  return fork;
}

int VaultIndex::find(const Path& path, std::uint64_t key) const {
  if (!in_domain(key)) return -1;
  const Node* leaf = path.node[height_[path.window] - 1];
  const Offset off = offset_in(path.window, key);
  const int pos = seek(leaf, off);
  return pos < leaf->count && leaf->key[pos] == off ? pos : -1;
}

std::optional<std::uint64_t> VaultIndex::first_at_least(
    std::uint64_t key) const {
  if (key > key_max_) return std::nullopt;
  Finger f;
  for (;;) {
    hold(f, key);
    const std::uint32_t w = f.path.window;
    const Node* leaf = f.path.node[height_[w] - 1];
    const int pos = seek(leaf, offset_in(w, key));
    if (pos < leaf->count) return window_start(w) + leaf->key[pos];
    if (!f.has_hi) return std::nullopt;
    key = f.hi;  // ran off the leaf: re-descend to the next separator
  }
}

std::optional<std::uint64_t> VaultIndex::extract_at_least(
    std::uint64_t key, std::uint64_t& reads) {
  if (key > key_max_) return std::nullopt;
  Finger& f = extract_finger_;
  for (;;) {
    reads += hold(f, key);
    const std::uint32_t w = f.path.window;
    const Node* leaf = f.path.node[height_[w] - 1];
    const int pos = seek(leaf, offset_in(w, key));
    if (pos < leaf->count) {
      const std::uint64_t out = window_start(w) + leaf->key[pos];
      if (leaf->count > 1 || height_[w] == 1) {
        erase_at(f.path, pos, f.path, reads);
        f.epoch = mutation_epoch_;
      } else {
        // The leaf empties and is freed: step the finger to the next leaf
        // first, then fix its path for the entry the free removes.
        Path emptied = f.path;
        const int fork = next_leaf(f.path, reads);
        const int height = height_[w];
        const int removed_at = erase_at(emptied, pos, f.path, reads);
        if (fork < 0) {
          f.valid = false;
        } else {
          if (removed_at == fork) --f.path.slot[fork];
          // Collapsed levels: their content now sits in the root block.
          const int collapsed = height - height_[w];
          std::copy(f.path.node + collapsed, f.path.node + height,
                    f.path.node);
          std::copy(f.path.slot + collapsed, f.path.slot + height,
                    f.path.slot);
          f.path.node[0] = root(w);
          bound(f);
          f.lo = out + 1;  // no key lies between `out` and the next leaf
        }
      }
      return out;
    }
    if (!f.has_hi) return std::nullopt;
    key = f.hi;
  }
}

}  // namespace pimds::core
