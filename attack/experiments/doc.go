// Package experiments contains the runnable reproductions of the paper's
// evaluation: the Fig. 10 port-contention attack, the Fig. 11 AES cache
// attack, the full §6.2 single-run AES trace extraction, the Fig. 3
// timeline, and the ablation studies listed in DESIGN.md. Each one runs
// on a machine built by attack/platform. The cmd tools are thin
// wrappers around this package, and msbench (bench/) runs its entry
// points as workloads.
package experiments
