// Package experiments reruns the paper's evaluation: Tables 1-6 (10MB
// file copies across Ethernet/FDDI, plain/Presto, single/striped disks,
// biod sweeps), Figure 1 (the traffic timeline), Figures 2-3 (LADDIS
// throughput/latency curves), the scale-out and crash/recovery sweeps,
// and the ablations DESIGN.md lists.
//
// Every entry point here, the ablations included, is a thin adapter over
// internal/scenario: it builds a declarative scenario.Spec, delegates to
// scenario.Run, and maps the uniform result back onto its historical
// return type. Nothing here assembles a testbed by hand. New experiment
// shapes should be written as scenario specs directly (see
// scenario.Registry); these adapters exist so pre-scenario callers and the
// recorded benchmark baselines keep working unchanged.
package experiments
