#include "baselines/lockfree_skiplist.hpp"

#include <cassert>
#include <cstddef>
#include <cstdlib>
#include <functional>
#include <limits>
#include <new>
#include <thread>

namespace pimds::baselines {

namespace {
constexpr std::uint64_t kHeadKey = 0;
constexpr std::uint64_t kTailKey = std::numeric_limits<std::uint64_t>::max();

// Per-thread tower-height generator; the stream does not need coordination.
thread_local Xoshiro256 t_height_rng{0x9e3779b97f4a7c15ULL ^
                                     std::hash<std::thread::id>{}(
                                         std::this_thread::get_id())};
}  // namespace

LockFreeSkipList::Node* LockFreeSkipList::make_node(std::uint64_t key,
                                                    int top_level) {
  const std::size_t bytes =
      offsetof(Node, next) +
      static_cast<std::size_t>(top_level + 1) * sizeof(std::atomic<std::uintptr_t>);
  auto* node = static_cast<Node*>(operator new(bytes));
  node->key = key;
  node->top_level = top_level;
  ::new (&node->holds) std::atomic<std::uint32_t>(top_level > 0 ? 2 : 1);
  for (int lvl = 0; lvl <= top_level; ++lvl) {
    ::new (&node->next[lvl]) std::atomic<std::uintptr_t>(0);
  }
  return node;
}

void LockFreeSkipList::free_node(void* p) { operator delete(p); }

LockFreeSkipList::LockFreeSkipList() {
  head_ = make_node(kHeadKey, kMaxHeight - 1);
  tail_ = make_node(kTailKey, kMaxHeight - 1);
  for (int lvl = 0; lvl < kMaxHeight; ++lvl) {
    head_->next[lvl].store(tag(tail_, false), std::memory_order_relaxed);
    tail_->next[lvl].store(tag(nullptr, false), std::memory_order_relaxed);
  }
}

LockFreeSkipList::~LockFreeSkipList() {
  reclaim_.reclaim_all_unsafe();
  Node* n = head_;
  while (n != nullptr) {
    Node* next = ptr_of(n->next[0].load(std::memory_order_relaxed));
    free_node(n);
    n = next;
  }
}

int LockFreeSkipList::random_height() {
  int h = 1;
  while (h < kMaxHeight && t_height_rng.next_bool(0.5)) ++h;
  return h;
}

bool LockFreeSkipList::find(std::uint64_t key, Node** preds, Node** succs) {
retry:
  Node* pred = head_;
  for (int lvl = kMaxHeight - 1; lvl >= 0; --lvl) {
    Node* curr = ptr_of(pred->next[lvl].load(std::memory_order_acquire));
    charge_cpu_access();
    for (;;) {
      std::uintptr_t succ_word =
          curr->next[lvl].load(std::memory_order_acquire);
      // Help: physically unlink nodes marked at this level.
      while (marked(succ_word)) {
        Node* succ = ptr_of(succ_word);
        std::uintptr_t expected = tag(curr, false);
        if (!pred->next[lvl].compare_exchange_strong(
                expected, tag(succ, false), std::memory_order_acq_rel)) {
          goto retry;
        }
        charge_atomic();
        curr = succ;
        succ_word = curr->next[lvl].load(std::memory_order_acquire);
        charge_cpu_access();
      }
      if (curr->key < key) {
        pred = curr;
        curr = ptr_of(succ_word);
        charge_cpu_access();
      } else {
        break;
      }
    }
    preds[lvl] = pred;
    succs[lvl] = curr;
  }
  return succs[0]->key == key;
}

bool LockFreeSkipList::add(std::uint64_t key) {
  assert(key > kHeadKey && key < kTailKey);
  EbrDomain::Guard guard(reclaim_);
  const int top = random_height() - 1;
  Node* preds[kMaxHeight];
  Node* succs[kMaxHeight];
  Node* node = nullptr;
  for (;;) {
    if (find(key, preds, succs)) {
      if (node != nullptr) free_node(node);  // never linked: safe to free
      return false;
    }
    if (node == nullptr) node = make_node(key, top);
    for (int lvl = 0; lvl <= top; ++lvl) {
      node->next[lvl].store(tag(succs[lvl], false),
                            std::memory_order_relaxed);
    }
    // Linearization: splice at the bottom level.
    std::uintptr_t expected = tag(succs[0], false);
    if (!preds[0]->next[0].compare_exchange_strong(
            expected, tag(node, false), std::memory_order_acq_rel)) {
      continue;  // contended: recompute the windows
    }
    charge_atomic();
    size_.fetch_add(1, std::memory_order_relaxed);
    if (top > 0) {
      // The builder's hold keeps a racing remover from retiring the node
      // while its upper levels may still be linked.
      build_tower(node, preds, succs);
      release(guard, node);
    }
    return true;
  }
}

void LockFreeSkipList::build_tower(Node* node, Node* const* preds,
                                   Node* const* succs) {
  // Link bottom-up through the windows of add()'s find and stop at the
  // first level that cannot be linked as found (a shorter tower is still a
  // valid skip list). Three things stop it: a remover's mark; a failed
  // splice (the window moved); and a successor with this same key. That
  // successor is an older node whose removal was already under way when
  // this node's bottom splice succeeded, so it is marked; linking in front
  // of it would hide it behind a live node with its key, past where its
  // remover's unlinking find stops, and it would be freed while reachable.
  for (int lvl = 1; lvl <= node->top_level; ++lvl) {
    if (succs[lvl]->key == node->key) return;
    if (marked(node->next[lvl].load(std::memory_order_acquire))) return;
    std::uintptr_t expected = tag(succs[lvl], false);
    if (!preds[lvl]->next[lvl].compare_exchange_strong(
            expected, tag(node, false), std::memory_order_acq_rel)) {
      return;
    }
    charge_atomic();
  }
}

void LockFreeSkipList::release(EbrDomain::Guard& guard, Node* node) {
  if (node->holds.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  // Both sides are done: the node is marked on every level and nothing
  // links it again, so one helping find unlinks it everywhere. The find
  // reaches it on every level because no live node with its key is ever
  // linked in front of it (build_tower).
  Node* preds[kMaxHeight];
  Node* succs[kMaxHeight];
  find(node->key, preds, succs);
  guard.retire(node, &LockFreeSkipList::free_node);
}

bool LockFreeSkipList::remove(std::uint64_t key) {
  assert(key > kHeadKey && key < kTailKey);
  EbrDomain::Guard guard(reclaim_);
  Node* preds[kMaxHeight];
  Node* succs[kMaxHeight];
  if (!find(key, preds, succs)) return false;
  Node* victim = succs[0];
  // Mark the upper levels top-down; contention is benign.
  for (int lvl = victim->top_level; lvl >= 1; --lvl) {
    std::uintptr_t w = victim->next[lvl].load(std::memory_order_acquire);
    while (!marked(w)) {
      victim->next[lvl].compare_exchange_weak(w, tag(ptr_of(w), true),
                                              std::memory_order_acq_rel);
    }
  }
  // Level 0 decides who wins the removal.
  std::uintptr_t w = victim->next[0].load(std::memory_order_acquire);
  for (;;) {
    if (marked(w)) return false;  // somebody else removed it
    if (victim->next[0].compare_exchange_strong(w, tag(ptr_of(w), true),
                                                std::memory_order_acq_rel)) {
      charge_atomic();
      break;
    }
  }
  size_.fetch_sub(1, std::memory_order_relaxed);
  release(guard, victim);
  return true;
}

bool LockFreeSkipList::contains(std::uint64_t key) {
  assert(key > kHeadKey && key < kTailKey);
  EbrDomain::Guard guard(reclaim_);
  Node* pred = head_;
  Node* curr = nullptr;
  for (int lvl = kMaxHeight - 1; lvl >= 0; --lvl) {
    curr = ptr_of(pred->next[lvl].load(std::memory_order_acquire));
    charge_cpu_access();
    for (;;) {
      std::uintptr_t succ_word =
          curr->next[lvl].load(std::memory_order_acquire);
      while (marked(succ_word)) {  // skip logically deleted nodes
        curr = ptr_of(succ_word);
        succ_word = curr->next[lvl].load(std::memory_order_acquire);
        charge_cpu_access();
      }
      if (curr->key < key) {
        pred = curr;
        curr = ptr_of(succ_word);
        charge_cpu_access();
      } else {
        break;
      }
    }
  }
  return curr->key == key;
}

}  // namespace pimds::baselines
