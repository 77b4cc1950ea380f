package hetrta

import "repro/internal/transform"

// This file exposes the extensions beyond the paper's core model: the
// Section 7 generalizations (multiple offloaded nodes, multiple devices,
// multiple device classes), which the core pipeline now carries end to
// end. Federated scheduling of tasksets is FederatedPolicy, run by a
// TasksetAnalyzer.

// MultiTransformation is the result of gating every offloaded node with a
// synchronization point (iterated Algorithm 1). Its Steps hold the
// per-offload Algorithm 1 results; for a single-offload task Steps[0] is
// exactly the paper's Transformation.
type MultiTransformation = transform.MultiResult

// TransformAll applies Algorithm 1 iteratively around every offloaded node
// in descending-COff order. Like Transform, the input must be transitively
// reduced; the single-offload case is the k = 1 instance.
func TransformAll(g *Graph) (*MultiTransformation, error) { return transform.All(g) }
