// Package analysis is the project-invariant analyzer suite behind
// cmd/autoce-vet: a stdlib-only (go/parser, go/types, go/importer) driver
// that loads every package in the module (nested modules excluded) and
// machine-checks the concurrency, determinism, and lifecycle rules the
// serving stack is built on. The rules exist because the invariants they pin are enforced
// nowhere at compile time — they live in package docs and -race tests,
// and a violation otherwise surfaces as a 1-in-1000 soak flake instead
// of a red lint job.
//
// # Rules
//
//	snapshotonce  A function must take an atomically published snapshot
//	              (an atomic.Pointer field, or an accessor method that
//	              returns one Load of it) at most once: two Loads of the
//	              same pointer in one function observe torn state across
//	              a concurrent republish.
//	pinpair       A model-cache acquire pins its handle against eviction;
//	              the pin must reach a release on every return path
//	              (deferred, or called before each return), or eviction
//	              wedges permanently.
//	detpath       Determinism-critical packages (internal/nn,
//	              internal/gnn, the internal/ce trainers, the corpus
//	              labeling paths in internal/experiments and
//	              internal/testbed, and the serving core with its ANN
//	              index — internal/core and internal/ann — and every
//	              package feeding a label: workload, datagen, dataset,
//	              engine, pgsim, feature, gbt and advisor) must not call
//	              time.Now, draw from the global math/rand state, use
//	              hash/maphash (seeded per process), or let map
//	              iteration order feed computation or output order
//	              (a *rand.Rand draw inside a map range included) —
//	              byte-identical labels, replayable tapes, and
//	              bit-reproducible index builds are load-bearing.
//	ctxloop       A while-shaped loop (`for {` or `for cond {`) in a
//	              function that takes a context.Context must reference
//	              the context (ctx.Err, ctx.Done, a Canceled check, or
//	              passing it on) somewhere in its body — the cooperative
//	              cancellation contract of the serving deadlines.
//	failpointlit  Every resilience.Failpoint call site must pass a unique
//	              constant string that appears in the documented
//	              resilience.FailpointSites registry, and every
//	              registered site must exist in the tree — so
//	              AUTOCE_FAILPOINTS specs can never silently name
//	              nothing.
//	barego        No go statement outside internal/par: parallel work
//	              fans out through par.For, which re-raises a worker's
//	              panic on the caller, where the panic fences catch it.
//
// # Suppression
//
// A finding is suppressed by a comment on the flagged line or the line
// directly above it:
//
//	//autoce:ignore <rule>[,<rule>...] -- <reason>
//
// The reason is mandatory; an ignore comment without one is itself
// reported. Suppressions are for violations that are intentional and
// understood (a snapshot deliberately re-taken after a mutation, a
// wall-clock read that feeds a latency label by design) — not for
// silencing bugs.
//
// # Adding an analyzer
//
// Implement a Rule (Name, Doc, Run func(*Pass) []Finding) in a new file
// and register it from init. Run receives one type-checked package at a
// time plus the whole-module view (Pass.Module) for cross-package rules.
// Give the rule a golden-file test: a mini-module under
// testdata/<rule>/ (own go.mod, seeded positive, suppressed, and clean
// shapes) whose source marks expected findings with want "substring"
// comments on the flagged lines — TestGolden discovers the module by the
// rule's name (see analysis_test.go).
package analysis
