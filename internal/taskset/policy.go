package taskset

import (
	"context"
	"fmt"

	"repro/internal/platform"
)

// AdmitInput is what a Policy gets to work with: the (canonically ordered)
// taskset, the shared platform, and one Eval per task.
type AdmitInput struct {
	Set      Taskset
	Platform platform.Platform
	// Evals is parallel to Set.Tasks.
	Evals []*Eval
}

// util returns task i's utilization vol/T, read from its eval's summary.
func (in *AdmitInput) util(i int) float64 {
	return in.Evals[i].sum.Utilization(in.Set.Tasks[i].Period)
}

// TaskDecision is one task's outcome under a policy, shaped for the JSON
// AdmitReport.
type TaskDecision struct {
	// Task indexes the (canonical) taskset.
	Task int `json:"task"`
	// Admitted says the policy certified this task; Reason explains a
	// negative (or qualifies a positive, e.g. "shared partition").
	Admitted bool   `json:"admitted"`
	Reason   string `json:"reason,omitempty"`
	// R is the response-time bound the decision used (0 when none was
	// reached).
	R float64 `json:"r,omitempty"`
	// Utilization is vol/T.
	Utilization float64 `json:"utilization"`
	// Cores is the dedicated host-core grant (federated heavy tasks).
	Cores int `json:"cores,omitempty"`
	// Heavy marks federated tasks with utilization > 1.
	Heavy bool `json:"heavy,omitempty"`
	// UsesDevice says the admitting analysis assumed exclusive accelerator
	// access (federated); DeviceClasses lists the granted classes.
	UsesDevice    bool  `json:"usesDevice,omitempty"`
	DeviceClasses []int `json:"deviceClasses,omitempty"`
}

// PolicyResult is a policy's verdict on a whole taskset.
type PolicyResult struct {
	// Policy is the policy name ("federated", "global").
	Policy string `json:"policy"`
	// Admitted says the taskset is schedulable under this policy's
	// (sufficient) test; Reason explains a rejection.
	Admitted bool   `json:"admitted"`
	Reason   string `json:"reason,omitempty"`
	// Tasks holds one decision per task, in taskset order.
	Tasks []TaskDecision `json:"tasks,omitempty"`
	// DedicatedCores / SharedCores summarize the federated partition.
	DedicatedCores int `json:"dedicatedCores,omitempty"`
	SharedCores    int `json:"sharedCores,omitempty"`
	// Iterations counts global response-time fixpoint iterations.
	Iterations int `json:"iterations,omitempty"`
}

// Policy is a pluggable taskset schedulability test. Implementations must
// be stateless values (safe for concurrent use across Admit calls).
type Policy interface {
	// Name is the stable identifier under which the result appears in an
	// AdmitReport. Names must be unique within one analyzer.
	Name() string
	// Admit evaluates the test. A non-admission is NOT an error: it is
	// reported in the PolicyResult. Errors are reserved for broken input or
	// failing bound computations.
	Admit(ctx context.Context, in AdmitInput) (*PolicyResult, error)
}

// checkGraphs rejects a taskset with a graph-less task, naming the task:
// the policies read every task's graph.
func checkGraphs(policy string, ts Taskset) error {
	for i, t := range ts.Tasks {
		if t.G == nil {
			return fmt.Errorf("taskset: %s: task %d: nil graph", policy, i)
		}
	}
	return nil
}
