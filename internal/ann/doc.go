// Package ann is a snapshot-built approximate-nearest-neighbor index
// over float64 embedding vectors: the indexed Stage-4 serving path that
// lets the advisor's recommendation candidate set grow to millions of
// entries without per-recommend latency growing with it.
//
// # Structure
//
// The index is IVF-shaped: a k-means coarse quantizer partitions the
// vector set into Nlist cells, each cell holding an inverted posting
// list of vector ids; a query scans only the Nprobe cells whose
// centroids are nearest to it. The quantizer is built by recursive
// bisecting k-means — each node runs a deterministic seeded 2-means
// (farthest-point init over a strided sample, a fixed Lloyd iteration
// budget) and splits until cells reach their target size — so a full
// build costs O(n·d·log Nlist) instead of the O(n·d·Nlist) of flat
// Lloyd assignment, and subtrees build in parallel through par.For,
// bounded by a GOMAXPROCS token budget. Nothing in the build reads wall-clock time, the global
// rand stream, or map order: the same vectors and Params always produce
// the same index (the package is in the autoce-vet detpath scope).
//
// # Lifecycle
//
// Build constructs an index for a frozen vector set (a core serving
// snapshot); below Params.MinIndexSize it returns nil and callers keep
// their exact scan, bit-for-bit. Extend clones an index onto a grown
// vector set, appending the new ids to their nearest cells — the cheap
// path incremental learning and online adapting take — and refuses
// (returns nil, signaling "rebuild") once appended vectors exceed
// Params.RebuildFraction of the total. MarshalBinary/Unmarshal move the
// quantizer and posting lists as a gob inside the shared CRC-32C
// envelope (internal/envelope) so a persisted advisor never pays the
// build twice; Attach re-binds a decoded index to its (recomputed)
// vector set, validating shape strictly. Corrupt bytes fail loudly: any
// bit flip in the envelope is caught by the checksum or the size field,
// and structural invariants (every id exactly once, in range, finite
// centroids) are re-validated on decode.
//
// # Search
//
// Search and SearchFiltered return (index, distance) pairs in
// nearest-first order under a total order — distance, then vector id —
// so results over duplicated embeddings are deterministic, matching the
// exact heap scan's tie-break. Results are approximate: cells not
// probed may hide a true neighbor. Recall at the default Params is
// pinned ≥ 0.95 by a differential test against the exact scan.
//
// Each cell's vectors are additionally stored as one contiguous
// row-major block (rebuilt from the attached set on Attach/Extend, never
// persisted), so a posting-list scan streams memory sequentially instead
// of pointer-chasing a [][]float64 — at 10^6 entries this cache behavior
// is most of the margin over the exact scan. The blocks double the
// index's share of embedding memory; that trade is deliberate.
package ann
