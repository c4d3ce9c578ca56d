// Package repro is a from-scratch Go reproduction of "AutoCE: An Accurate
// and Efficient Model Advisor for Learned Cardinality Estimation" (Zhang,
// Zhang, Li, Chai — ICDE 2023).
//
// See README.md for the architecture overview and package map; `go run
// ./cmd/autoce-exp` regenerates every table and figure of the measured
// reproduction. The root package exists to host the repository-level
// benchmark suite (bench_test.go); all functionality lives under internal/
// and is exercised through cmd/autoce, cmd/autoce-exp, and the examples.
package repro
