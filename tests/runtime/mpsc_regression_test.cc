// Regression tests for three MpscQueue paper cuts:
//
//  1. PopBatch used to leave moved-from ring slots holding whatever captured
//     state the task type's move left behind — for task types whose move is
//     a copy (or merely "valid but unspecified", like std::function), a
//     drained task's captures stayed pinned by an idle queue indefinitely.
//  2. The lvalue TryPush/Push overloads used to copy the item *before*
//     checking full/closed, so every rejected push paid (and discarded) a
//     full copy of the task under saturation — exactly when the system can
//     least afford it.
//  3. PopBatch used to push_back into the caller's vector under the queue
//     mutex with no reserve, so a cold vector reallocated (and could throw)
//     inside the critical section.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "runtime/mpsc_queue.h"

namespace runtime {
namespace {

// A task type whose move degrades to copy (user-declared copy ops suppress
// the implicit move ops): after `out.push_back(std::move(slot))` the slot
// STILL holds the captured payload — the worst case the slot reset exists
// for. std::function lands in the same place via "valid but unspecified".
struct StickyTask {
  std::shared_ptr<int> payload;

  StickyTask() = default;
  explicit StickyTask(std::shared_ptr<int> p) : payload(std::move(p)) {}
  StickyTask(const StickyTask&) = default;
  StickyTask& operator=(const StickyTask&) = default;
};

TEST(MpscRegressionTest, DrainedSlotReleasesCapturedTaskState) {
  MpscQueue<StickyTask> q(4);
  auto payload = std::make_shared<int>(42);
  std::weak_ptr<int> observer = payload;
  ASSERT_TRUE(q.TryPush(StickyTask(std::move(payload))));

  std::vector<StickyTask> out;
  ASSERT_EQ(q.PopBatch(out, 4), 1u);
  ASSERT_TRUE(observer.lock() != nullptr);  // The drained copy holds it...
  out.clear();                              // ...until the consumer is done.

  // Pre-fix: the ring slot still held a copy of the capture, keeping it
  // alive until some later push overwrote the slot — on an idle queue,
  // arbitrarily long. Post-fix PopBatch resets drained slots to T{}.
  EXPECT_TRUE(observer.expired());
}

// Counts copies; moves are free. Rejected pushes must cost zero copies.
struct CopyCounted {
  static int copies;
  int v = 0;

  CopyCounted() = default;
  explicit CopyCounted(int x) : v(x) {}
  CopyCounted(const CopyCounted& o) : v(o.v) { ++copies; }
  CopyCounted& operator=(const CopyCounted& o) {
    v = o.v;
    ++copies;
    return *this;
  }
  CopyCounted(CopyCounted&&) = default;
  CopyCounted& operator=(CopyCounted&&) = default;
};
int CopyCounted::copies = 0;

TEST(MpscRegressionTest, RejectedLvaluePushCostsNoCopy) {
  MpscQueue<CopyCounted> q(2);
  const CopyCounted item(1);

  CopyCounted::copies = 0;
  EXPECT_TRUE(q.TryPush(item));
  EXPECT_TRUE(q.TryPush(item));
  EXPECT_EQ(CopyCounted::copies, 2);  // One copy per *accepted* push.

  // Full: the pre-fix code copied first and threw the copy away.
  EXPECT_FALSE(q.TryPush(item));
  EXPECT_EQ(CopyCounted::copies, 2);

  q.Close();
  EXPECT_FALSE(q.TryPush(item));
  EXPECT_FALSE(q.Push(item));  // Blocking overload: closed check precedes copy.
  EXPECT_EQ(CopyCounted::copies, 2);
}

// Counts move-constructions (what vector growth and push_back perform).
struct MoveCounted {
  static int move_ctors;
  int v = 0;

  MoveCounted() = default;
  explicit MoveCounted(int x) : v(x) {}
  MoveCounted(MoveCounted&& o) noexcept : v(o.v) { ++move_ctors; }
  MoveCounted& operator=(MoveCounted&&) noexcept = default;
  MoveCounted(const MoveCounted&) = delete;
  MoveCounted& operator=(const MoveCounted&) = delete;
};
int MoveCounted::move_ctors = 0;

TEST(MpscRegressionTest, PopBatchReservesOnceAndNeverReallocatesMidDrain) {
  constexpr std::size_t kN = 64;
  MpscQueue<MoveCounted> q(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(q.TryPush(MoveCounted(static_cast<int>(i))));
  }

  // A cold, zero-capacity output vector is the worst case: without the
  // up-front reserve, push_back under the lock grows 1→2→4→…→64, move-
  // constructing every element again on each reallocation (63 extra moves).
  std::vector<MoveCounted> out;
  MoveCounted::move_ctors = 0;
  ASSERT_EQ(q.PopBatch(out, kN), kN);
  EXPECT_EQ(MoveCounted::move_ctors, static_cast<int>(kN))
      << "PopBatch reallocated the output vector mid-drain (inside the "
         "critical section) instead of reserving up front";
  EXPECT_GE(out.capacity(), kN);
}

}  // namespace
}  // namespace runtime
