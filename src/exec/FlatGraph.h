//===- exec/FlatGraph.h - Flattened stream graph ---------------*- C++ -*-===//
///
/// \file
/// The hierarchical stream graph flattened into the form both execution
/// engines consume: filter nodes, splitter/joiner nodes and indexed FIFO
/// channels. The dynamic `Executor` runs this with deque channels and a
/// readiness sweep; the `CompiledExecutor` derives a static firing program
/// (sched/Schedule.h) over the same topology and runs it against flat ring
/// buffers.
///
/// FlatGraph holds only topology and per-firing rate signatures — engine
/// state (field stores, native filter instances, channel storage) stays
/// with each engine.
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_EXEC_FLATGRAPH_H
#define SLIN_EXEC_FLATGRAPH_H

#include "graph/Stream.h"

#include <string>
#include <vector>

namespace slin {
namespace flat {

enum class NodeKind { Filter, DupSplit, RRSplit, RRJoin };

/// One flattened node. Filters use In/Out; splitters use In/Outs(+Weights);
/// joiners use Ins(+Weights)/Out. -1 means "none".
struct Node {
  NodeKind Kind;
  std::string Name;
  const Filter *F = nullptr; ///< Filter nodes only
  int In = -1;
  int Out = -1;
  std::vector<int> Ins;
  std::vector<int> Outs;
  std::vector<int> Weights;

  /// Total roundrobin weight (splitter items per firing / joiner output).
  int totalWeight() const {
    int T = 0;
    for (int W : Weights)
      T += W;
    return T;
  }

  /// Items that must be present on \p Chan for one firing to start.
  /// For filters this is the peek requirement (>= pop); for splitters and
  /// joiners it equals the pop amount. \p InitFiring selects a filter's
  /// init-work rates for its first firing.
  int peekNeedOn(int Chan, bool InitFiring) const;

  /// Items consumed from \p Chan by one firing.
  int popsFrom(int Chan, bool InitFiring) const;

  /// Items produced onto \p Chan by one firing.
  int pushesTo(int Chan, bool InitFiring) const;

  /// All input channels of the node (>= 0 only).
  std::vector<int> inputChannels() const;
  /// All output channels of the node (>= 0 only).
  std::vector<int> outputChannels() const;
};

/// The flattened graph: nodes in flattening order (producers of a pipeline
/// precede consumers), channels by index, plus the external endpoints.
struct FlatGraph {
  explicit FlatGraph(const Stream &Root);

  /// Empty graph (a CompiledProgram member before lowering assigns it).
  FlatGraph() = default;

  std::vector<Node> Nodes;
  /// Items pre-loaded on each channel (feedback-loop enqueued values).
  std::vector<std::vector<double>> InitialItems;
  int ExternalIn = -1;
  int ExternalOut = -1;
  bool RootProducesOutput = false;

  size_t numChannels() const { return InitialItems.size(); }

private:
  int makeChannel();
  void flatten(const Stream &S, int InChan, int OutChan);
};

} // namespace flat
} // namespace slin

#endif // SLIN_EXEC_FLATGRAPH_H
