// Package repro reproduces P. A. Skordos, "Parallel simulation of subsonic
// fluid dynamics on a cluster of workstations" (MIT AI Memo 1485, 1994;
// HPDC 1995): a distributed fluid-dynamics system for non-dedicated
// workstations built from explicit local-interaction numerical methods
// (finite differences and lattice Boltzmann), static rectangular domain
// decomposition with ghost-cell exchange, TCP messaging with a shared-file
// port registry, and automatic migration of parallel processes from busy
// hosts to free hosts — extended into a multi-job simulation farm that
// reuses the migration protocol for preemption.
//
// The farm package at the module root is the supported public surface
// for running a simulation farm: functional-option construction, typed
// job handles, sentinel errors, a context-aware lifecycle and a
// structured event stream over the internal scheduler.
//
// The rest of the library lives under internal/; see README.md for the
// architecture
// and package map, DESIGN.md for the per-experiment index, and
// EXPERIMENTS.md for how to run the evaluation and what to expect.
// cmd/experiments regenerates every table and figure of the paper's
// evaluation; speed is measured with the bench/ module.
package repro
