#pragma once

#include <string>
#include <utility>
#include <vector>

#include "machine/machine.h"
#include "util/check.h"

namespace cloudlb {

/// A virtual machine: a named set of vCPUs pinned to physical cores.
///
/// Each vCPU is a scheduler context on its physical core. Co-location —
/// two VMs owning vCPUs on the same core — is how interference arises:
/// the core's weighted processor sharing divides cycles between them,
/// exactly the multi-tenancy effect the paper studies. The `weight`
/// models the hypervisor/OS share given to this VM's vCPUs (the paper
/// observed the OS favouring the background job for Mol3D; that scenario
/// sets weight > 1 on the interfering VM).
class VirtualMachine {
 public:
  VirtualMachine(Machine& machine, std::string name,
                 std::vector<CoreId> pinned_cores, double weight = 1.0);

  const std::string& name() const { return name_; }
  int num_vcpus() const { return static_cast<int>(vcpus_.size()); }
  Machine& machine() { return machine_; }
  const Machine& machine() const { return machine_; }

  /// Physical core backing vCPU `v`.
  CoreId core_of(int v) const { return vcpu(v).core; }

  /// Requests CPU consumption on a vCPU (see Core::demand).
  void demand(int v, SimTime cpu_time, EngineCore::Callback&& on_complete) {
    const VCpu& vc = vcpu(v);
    machine_.core(vc.core).demand(vc.ctx, cpu_time, std::move(on_complete));
  }

  bool has_demand(int vcpu) const;

  /// Cumulative CPU consumed by a vCPU.
  SimTime vcpu_cpu_time(int vcpu) const;

  /// `/proc/stat` of the physical core backing vCPU `v` — what a guest
  /// reading host counters (or the LB daemon on the host) would see.
  ProcStat host_proc_stat(int vcpu) const;

  /// host_proc_stat extrapolated to `t` (see Core::proc_stat_at for the
  /// exactness contract). The sharded runtime samples all PEs at one
  /// global instant even though their engines' clocks lag behind it.
  ProcStat host_proc_stat_at(int vcpu, SimTime t) const;

  /// vcpu_cpu_time extrapolated to `t` (same contract).
  SimTime vcpu_cpu_time_at(int vcpu, SimTime t) const;

  /// Changes the scheduler weight of every vCPU of this VM.
  void set_weight(double weight);

 private:
  struct VCpu {
    CoreId core;
    ContextId ctx;
  };

  const VCpu& vcpu(int v) const {
    CLB_CHECK(v >= 0 && static_cast<std::size_t>(v) < vcpus_.size());
    return vcpus_[static_cast<std::size_t>(v)];
  }

  Machine& machine_;
  std::string name_;
  std::vector<VCpu> vcpus_;
};

}  // namespace cloudlb
