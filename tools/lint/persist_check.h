// Flow-sensitive persist-ordering analysis.
//
// The durability layer's crash-consistency contract (DESIGN.md §14/§16)
// is a strict per-call-site ordering over the PersistentRegion
// primitives:
//
//   Store      -> line dirty in the modeled CPU cache
//   FlushRange -> dirty lines accepted into the WPQ (clwb)
//   NtStore    -> lines accepted directly (cache-bypassing)
//   Fence      -> accepted lines drained into the persistence domain
//
// and a *publish* (AdvanceCommitted / RestoreCommitted / the runtime
// oracle's OnPublish declaration) may only run once every prior store
// has walked the whole ladder. This pass checks it per *path*: it
// tokenizes the comment/string-blanked code (scanner.h), finds every
// function body that touches a persistence primitive through a member
// call, builds a statement-level control-flow structure (if/else, loops,
// early returns, PMEMOLAP_*_RETURN macro exits), and pushes a per-store
// lattice (dirty -> flushed -> fenced, tracked per receiver and per
// offset expression) through it to a fixpoint.
//
// Diagnostics (each with its own rule id so lint:allow stays precise):
//
//   persist-order        a publish (or function exit, or commit-marker
//                        write) reachable while some store — on any
//                        receiver, for a commit marker — is still
//                        dirty or flushed-but-unfenced on that path
//   persist-double-flush FlushRange of a range already flushed and not
//                        re-dirtied since (pure cost, perf diagnostic)
//   persist-mixed-store  NtStore and cached Store interleaved on the
//                        same range without an intervening Fence (WC-
//                        buffer ordering hazard on real hardware)
//
// Like every lexical pass, precision is bounded: ranges are compared by
// the normalized text of their offset expression, and a FlushRange
// whose offset matches no pending store conservatively covers all of
// its receiver's dirty ranges. tests/ are exempt (crash tests violate
// the protocol on purpose); the runtime PersistOrderChecker covers
// them instead.
#pragma once

#include <string>

#include "scanner.h"

namespace pmemolap::lint {

struct Report;

/// Runs the pass over one scanned file. `path` decides exemption
/// (tests/ and non-src files are skipped) and labels diagnostics.
void CheckPersistOrder(const std::string& path, const ScannedFile& scan,
                       Report* report);

}  // namespace pmemolap::lint
