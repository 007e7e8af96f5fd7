#include "core/skip_list.hpp"

#include <cassert>
#include <cstddef>
#include <new>

namespace pimds::core {

SkipList::SkipList(std::uint64_t sentinel_key)
    : head_(make_node(sentinel_key, kMaxHeight)) {}

SkipList::~SkipList() {
  Node* n = head_;
  while (n != nullptr) {
    Node* next = n->next[0];
    free_node(n);
    n = next;
  }
}

SkipList::Node* SkipList::make_node(std::uint64_t key, int height) {
  void* mem = ::operator new(sizeof(Node) +
                             static_cast<std::size_t>(height) * sizeof(Node*));
  auto** links = reinterpret_cast<Node**>(static_cast<std::byte*>(mem) +
                                          sizeof(Node));
  for (int lvl = 0; lvl < height; ++lvl) links[lvl] = nullptr;
  return ::new (mem) Node{key, height, links};
}

void SkipList::free_node(Node* node) noexcept { ::operator delete(node); }

int SkipList::random_height(Xoshiro256& rng) {
  int h = 1;
  while (h < kMaxHeight && rng.next_bool(0.5)) ++h;
  return h;
}

std::uint64_t SkipList::search(std::uint64_t key, Node** preds) const {
  int top = kMaxHeight - 1;
  while (top > 0 && head_->next[top] == nullptr) --top;
  for (int lvl = kMaxHeight - 1; lvl > top; --lvl) preds[lvl] = head_;
  Node* pred = head_;
  std::uint64_t steps = 0;
  for (int lvl = top; lvl >= 0; --lvl) {
    Node* curr = pred->next[lvl];
    ++steps;  // reading the forward pointer at this level
    while (curr != nullptr && curr->key < key) {
      pred = curr;
      curr = curr->next[lvl];
      ++steps;
    }
    preds[lvl] = pred;
  }
  return steps;
}

int SkipList::link(std::uint64_t key, Node** preds, Xoshiro256& rng) {
  const int height = random_height(rng);
  Node* node = make_node(key, height);
  for (int lvl = 0; lvl < height; ++lvl) {
    node->next[lvl] = preds[lvl]->next[lvl];
    preds[lvl]->next[lvl] = node;
  }
  ++size_;
  return height;
}

void SkipList::unlink(Node* victim, Node** preds) {
  for (int lvl = 0; lvl < victim->height; ++lvl) {
    if (preds[lvl]->next[lvl] == victim) {
      preds[lvl]->next[lvl] = victim->next[lvl];
    }
  }
  free_node(victim);
  --size_;
}

void SkipList::populate(Xoshiro256& rng, std::size_t target_size,
                        std::uint64_t lo, std::uint64_t hi) {
  while (size_ < target_size) insert_for_setup(rng, rng.next_in(lo, hi));
}

bool SkipList::insert_for_setup(Xoshiro256& rng, std::uint64_t key) {
  Node* preds[kMaxHeight];
  search(key, preds);
  const Node* at = preds[0]->next[0];
  if (at != nullptr && at->key == key) return false;  // distinct keys only
  ++mutation_epoch_;
  link(key, preds, rng);
  return true;
}

bool SkipList::apply(SetOp op, std::uint64_t key, Xoshiro256& rng,
                     std::uint64_t& steps) {
  assert(key > head_->key && "operation key must exceed the sentinel key");
  Node* preds[kMaxHeight];
  // The paper's beta counts "nodes an operation has to access to find the
  // location of its key": the whole search is charged at once.
  steps = search(key, preds);
  Node* found = preds[0]->next[0];
  const bool present = found != nullptr && found->key == key;
  switch (op) {
    case SetOp::kContains:
      return present;
    case SetOp::kAdd:
      if (present) return false;
      ++mutation_epoch_;
      link(key, preds, rng);
      return true;
    case SetOp::kRemove:
      if (!present) return false;
      ++mutation_epoch_;
      unlink(found, preds);
      return true;
  }
  return false;
}

std::optional<std::uint64_t> SkipList::first_at_least(
    std::uint64_t key) const {
  Node* preds[kMaxHeight];
  search(key, preds);
  const Node* found = preds[0]->next[0];
  if (found == nullptr) return std::nullopt;
  return found->key;
}

std::optional<std::uint64_t> SkipList::unlink_first_at_least(
    std::uint64_t key) {
  Node* preds[kMaxHeight];
  search(key, preds);
  Node* victim = preds[0]->next[0];
  if (victim == nullptr) return std::nullopt;
  const std::uint64_t out = victim->key;
  ++mutation_epoch_;
  unlink(victim, preds);
  return out;
}

bool SkipList::link_ascending(InsertCursor& cursor, std::uint64_t key,
                              Xoshiro256& rng, std::uint64_t& steps) {
  Node** preds = cursor.preds;
  if (!cursor.valid || cursor.epoch != mutation_epoch_) {
    // (Re-)seed the fingers with one full search.
    steps = search(key, preds);
    cursor.valid = true;
  } else {
    // Advance the fingers monotonically; total movement over a whole
    // migration is one bottom-level walk, so per-insert cost is O(1)
    // amortized plus the tower links.
    steps = 0;
    for (int lvl = kMaxHeight - 1; lvl >= 0; --lvl) {
      Node* pred = preds[lvl];
      Node* curr = pred->next[lvl];
      while (curr != nullptr && curr->key < key) {
        pred = curr;
        curr = curr->next[lvl];
        ++steps;
      }
      preds[lvl] = pred;
    }
    ++steps;  // reading the insertion point
  }
  const Node* at = preds[0]->next[0];
  if (at != nullptr && at->key == key) return false;
  steps += static_cast<std::uint64_t>(link(key, preds, rng));
  cursor.epoch = mutation_epoch_;  // our own insert does not invalidate us
  return true;
}

std::vector<std::uint64_t> SkipList::keys() const {
  std::vector<std::uint64_t> out;
  out.reserve(size_);
  for (const Node* n = head_->next[0]; n != nullptr; n = n->next[0]) {
    out.push_back(n->key);
  }
  return out;
}

}  // namespace pimds::core
