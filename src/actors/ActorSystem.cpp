//===- actors/ActorSystem.cpp ---------------------------------------------==//

#include "actors/ActorSystem.h"

using namespace ren;
using namespace ren::actors;

ActorSystem::ActorSystem(unsigned Parallelism)
    : PoolPtr(std::make_unique<forkjoin::ForkJoinPool>(Parallelism)) {}

ActorSystem::~ActorSystem() {
  // Stop the workers first; only then is it safe to destroy actors. The
  // pool is destroyed in place rather than by reset(), which would null
  // PoolPtr before the workers join: an activation still running may
  // schedule() through it until then.
  delete PoolPtr.get();
  PoolPtr.release();
  // Break ActorRef cycles (actors holding refs to each other/themselves)
  // so the cells can actually be reclaimed.
  runtime::Synchronized Sync(CellsLock);
  for (auto &C : Cells)
    C->dropActor();
  Cells.clear();
}

void ActorSystem::notePending() { PendingMessages.getAndAdd(1); }

void ActorSystem::noteProcessed() {
  if (PendingMessages.getAndAdd(-1) == 1) {
    runtime::Synchronized Sync(QuiescenceMonitor);
    QuiescenceMonitor.notifyAll();
  }
}

void ActorSystem::awaitQuiescence() {
  runtime::Synchronized Sync(QuiescenceMonitor);
  // Re-check with a short timeout: the count is decremented outside the
  // monitor, so a notification can slip in between the check and the wait.
  while (PendingMessages.load(std::memory_order_acquire) != 0)
    QuiescenceMonitor.waitFor(/*Millis=*/1);
}
