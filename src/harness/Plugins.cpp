//===- harness/Plugins.cpp ------------------------------------------------==//

#include "harness/Plugins.h"

#include "stm/Stm.h"

using namespace ren;
using namespace ren::harness;

Counters Counters::take() {
  Counters C;
  C.Metrics = metrics::MetricsRegistry::get().snapshot();
  C.Heap = runtime::heap::stats();
  C.HeapLiveBytes = C.Heap.bytesLive();
  C.HeapOccupancyPercent = C.Heap.slabOccupancyPercent();
  C.StmCommits = stm::StmRuntime::get().commits();
  C.StmAborts = stm::StmRuntime::get().aborts();
  C.LoadReports = netsim::loadReportVersion();
  return C;
}

Counters Counters::delta(const Counters &Begin, const Counters &End) {
  Counters D;
  D.Metrics = metrics::MetricSnapshot::delta(Begin.Metrics, End.Metrics);
  D.Heap = runtime::heap::HeapStats::delta(Begin.Heap, End.Heap);
  D.HeapLiveBytes = End.HeapLiveBytes;
  D.HeapOccupancyPercent = End.HeapOccupancyPercent;
  D.StmCommits = End.StmCommits - Begin.StmCommits;
  D.StmAborts = End.StmAborts - Begin.StmAborts;
  D.LoadReports = End.LoadReports - Begin.LoadReports;
  return D;
}

std::vector<std::pair<std::string, double>> Counters::named() const {
  std::vector<std::pair<std::string, double>> Out;
  auto Add = [&Out](std::string Name, double Value) {
    Out.emplace_back(std::move(Name), Value);
  };
  for (unsigned I = 0; I < metrics::kNumCounters; ++I)
    Add(std::string("runtime.") +
            metrics::metricName(static_cast<metrics::Metric>(I)),
        Metrics.Counts[I]);
  Add("runtime.cpu_ns", Metrics.ProcessCpuNanos);
  Add("runtime.wall_ns", Metrics.WallNanos);

  auto AddHeap = [&Add](const char *Name, double Value) {
    Add(std::string("runtime.heap.") + Name, Value);
  };
  AddHeap("bytes_allocated", Heap.BytesAllocated);
  AddHeap("bytes_freed", Heap.BytesFreed);
  AddHeap("array_bytes", Heap.ArrayBytes);
  AddHeap("small_allocs", Heap.SmallAllocs);
  AddHeap("large_allocs", Heap.LargeAllocs);
  AddHeap("remote_frees", Heap.RemoteFrees);
  AddHeap("regions_allocated", Heap.RegionsAllocated);
  AddHeap("slabs_in_use", Heap.SlabsInUse);
  AddHeap("slabs_recycled", Heap.SlabsRecycled);
  AddHeap("orphan_slabs_adopted", Heap.OrphanSlabsAdopted);
  AddHeap("reclaim_passes", Heap.ReclaimPasses);
  AddHeap("reclaim_ns", Heap.ReclaimTotalNanos);
  AddHeap("reclaim_max_ns", Heap.ReclaimMaxNanos);
  AddHeap("epoch", Heap.Epoch);
  AddHeap("live_bytes", HeapLiveBytes);
  AddHeap("slab_occupancy_pct", HeapOccupancyPercent);

  Add("stm.commits", StmCommits);
  Add("stm.aborts", StmAborts);
  Add("netsim.load_reports", LoadReports);
  return Out;
}
