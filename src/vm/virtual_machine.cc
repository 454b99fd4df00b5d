#include "vm/virtual_machine.h"

#include "util/check.h"

namespace cloudlb {

VirtualMachine::VirtualMachine(Machine& machine, std::string name,
                               std::vector<CoreId> pinned_cores, double weight)
    : machine_{machine}, name_{std::move(name)} {
  CLB_CHECK(!pinned_cores.empty());
  vcpus_.reserve(pinned_cores.size());
  for (std::size_t v = 0; v < pinned_cores.size(); ++v) {
    const CoreId core = pinned_cores[v];
    const ContextId ctx = machine_.core(core).register_context(
        name_ + "/vcpu" + std::to_string(v), weight);
    vcpus_.push_back(VCpu{core, ctx});
  }
}

bool VirtualMachine::has_demand(int v) const {
  const VCpu& vc = vcpu(v);
  return machine_.core(vc.core).has_demand(vc.ctx);
}

SimTime VirtualMachine::vcpu_cpu_time(int v) const {
  const VCpu& vc = vcpu(v);
  return machine_.core(vc.core).context_cpu_time(vc.ctx);
}

ProcStat VirtualMachine::host_proc_stat(int v) const {
  return machine_.core(vcpu(v).core).proc_stat();
}

ProcStat VirtualMachine::host_proc_stat_at(int v, SimTime t) const {
  return machine_.core(vcpu(v).core).proc_stat_at(t);
}

SimTime VirtualMachine::vcpu_cpu_time_at(int v, SimTime t) const {
  const VCpu& vc = vcpu(v);
  return machine_.core(vc.core).context_cpu_time_at(vc.ctx, t);
}

void VirtualMachine::set_weight(double weight) {
  for (const VCpu& vc : vcpus_)
    machine_.core(vc.core).set_weight(vc.ctx, weight);
}

}  // namespace cloudlb
