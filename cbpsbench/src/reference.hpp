// Host-speed reference for the host-time metrics.
//
// On a shared host the same replay ran 30-60% slower for minutes at a
// time while neighbours were busy (no steal time, no page faults: the
// code itself ran slower). A fixed kernel with the simulator's kind of
// work -- shared_ptr allocation churn, hashed and ordered map lookups
// over a working set of tens of MB, a binary heap -- slows down in the
// same phases, if less. Timing it between replays and scaling each
// replay by (kReferenceSeconds / kernel time) halved the run-to-run
// spread of the replay rate in such a phase (16% -> 9% over 8 runs). The
// kernel never touches cbps code, so a change to the library moves only
// the replay side.
#pragma once

namespace cbpsbench {

/// Kernel time on the host the normalised metrics are expressed for (an
/// idle core of a 4-vCPU 2.1 GHz x86-64 VM ran it in 50-55 ms).
constexpr double kReferenceSeconds = 0.05;

/// Run the reference kernel once and return its host seconds. The first
/// call also builds the kernel's data (untimed); call it once before
/// using the results.
double reference_kernel_s();

}  // namespace cbpsbench
