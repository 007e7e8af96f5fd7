#include "baselines/lazy_list.hpp"

#include <cassert>
#include <limits>
#include <mutex>

namespace pimds::baselines {

namespace {
constexpr std::uint64_t kHeadKey = 0;
constexpr std::uint64_t kTailKey = std::numeric_limits<std::uint64_t>::max();
}  // namespace

LazyList::LazyList() {
  Node* tail = new Node(kTailKey, nullptr);
  head_ = new Node(kHeadKey, tail);
}

LazyList::~LazyList() {
  reclaim_.reclaim_all_unsafe();  // frees unlinked-but-unreclaimed nodes
  Node* n = head_;
  while (n != nullptr) {
    Node* next = n->next.load(std::memory_order_relaxed);
    delete n;
    n = next;
  }
}

void LazyList::locate(std::uint64_t key, Node*& prev, Node*& curr) const {
  prev = head_;
  charge_cpu_access();
  curr = prev->next.load(std::memory_order_acquire);
  while (curr->key < key) {
    charge_cpu_access();
    prev = curr;
    curr = prev->next.load(std::memory_order_acquire);
  }
}

bool LazyList::add(std::uint64_t key) {
  assert(key > kHeadKey && key < kTailKey);
  EbrDomain::Guard guard(reclaim_);
  for (;;) {
    Node* prev;
    Node* curr;
    locate(key, prev, curr);
    std::scoped_lock both(prev->lock, curr->lock);
    if (!validate(prev, curr)) continue;  // raced with a remove: retry
    if (curr->key == key) return false;
    Node* node = new Node(key, curr);
    prev->next.store(node, std::memory_order_release);
    size_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
}

bool LazyList::remove(std::uint64_t key) {
  assert(key > kHeadKey && key < kTailKey);
  EbrDomain::Guard guard(reclaim_);
  for (;;) {
    Node* prev;
    Node* curr;
    locate(key, prev, curr);
    std::scoped_lock both(prev->lock, curr->lock);
    if (!validate(prev, curr)) continue;
    if (curr->key != key) return false;
    curr->marked.store(true, std::memory_order_release);  // logical delete
    prev->next.store(curr->next.load(std::memory_order_relaxed),
                     std::memory_order_release);
    size_.fetch_sub(1, std::memory_order_relaxed);
    guard.retire(curr);
    return true;
  }
}

bool LazyList::contains(std::uint64_t key) {
  assert(key > kHeadKey && key < kTailKey);
  EbrDomain::Guard guard(reclaim_);
  Node* prev;
  Node* curr;
  locate(key, prev, curr);
  return curr->key == key && !curr->marked.load(std::memory_order_acquire);
}

}  // namespace pimds::baselines
