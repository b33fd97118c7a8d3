// Resource readings for the serving process and its worker processes.
#pragma once

#include <sys/types.h>

namespace servebench {

/// User + system CPU seconds of this process (all threads).
double cpu_seconds_self();
/// User + system CPU seconds of another process, from /proc; 0 if gone.
double cpu_seconds_pid(pid_t pid);
/// Peak resident set of this process, MB.
double peak_rss_mb_self();
/// Peak resident set (VmHWM) of another process, MB; 0 if gone.
double peak_rss_mb_pid(pid_t pid);
/// CPU seconds the hypervisor has taken from this machine's CPUs since
/// boot (steal, summed over CPUs, from /proc/stat); 0 where not reported.
double host_steal_seconds();

}  // namespace servebench
