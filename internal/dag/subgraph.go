package dag

// InducedSubgraph returns the subgraph induced by keep: the kept nodes with
// every edge of g whose two endpoints are kept. This constructs the paper's
// GPar = (VPar, EPar) from VPar (Algorithm 1, lines 14–17).
//
// Node IDs are re-densified; the second return value maps new IDs back to
// the originals (newToOld[newID] = oldID), preserving ascending old-ID
// order so results remain deterministic.
func (g *Graph) InducedSubgraph(keep NodeSet) (*Graph, []int) {
	newToOld := keep.Sorted()
	oldToNew := make([]int, g.NumNodes())
	for i := range oldToNew {
		oldToNew[i] = -1
	}
	nodes := make([]Node, len(newToOld))
	for newID, oldID := range newToOld {
		nodes[newID] = g.nodes[oldID]
		oldToNew[oldID] = newID
	}
	succs := make([][]int, len(newToOld))
	var edges int
	for _, oldU := range newToOld {
		for _, oldV := range g.succs[oldU] {
			if oldToNew[oldV] >= 0 {
				edges++
			}
		}
	}
	back := make([]int, 0, edges)
	for newU, oldU := range newToOld {
		start := len(back)
		for _, oldV := range g.succs[oldU] {
			if nv := oldToNew[oldV]; nv >= 0 {
				back = append(back, nv)
			}
		}
		// Old IDs ascending map to new IDs ascending, so each list stays
		// sorted.
		succs[newU] = back[start:len(back):len(back)]
	}
	sub, err := FromAdjacency(nodes, succs)
	if err != nil {
		// keep's members are valid node IDs and g's lists are sorted, so
		// this cannot happen.
		panic("dag: InducedSubgraph: " + err.Error())
	}
	return sub, newToOld
}
