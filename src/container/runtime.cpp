#include "container/runtime.h"

#include <utility>

namespace swapserve::container {

ContainerRuntime::ContainerRuntime(sim::Simulation& sim,
                                   ImageRegistry registry)
    : sim_(sim), registry_(std::move(registry)) {}

Result<Container*> ContainerRuntime::Create(const std::string& name,
                                            const std::string& image_name) {
  if (name.empty()) return InvalidArgument("container name empty");
  if (containers_.contains(name)) {
    return AlreadyExists("container " + name);
  }
  SWAP_ASSIGN_OR_RETURN(ImageSpec image, registry_.Find(image_name));
  const std::uint64_t id = next_id_++;
  const std::string ip = "10.88." + std::to_string((id >> 8) & 0xff) + "." +
                         std::to_string(id & 0xff);
  auto container = std::make_unique<Container>(sim_, id, name,
                                               std::move(image), ip,
                                               next_port_++);
  Container* raw = container.get();
  containers_.emplace(name, std::move(container));
  return raw;
}

Result<Container*> ContainerRuntime::Find(const std::string& name) {
  auto it = containers_.find(name);
  if (it == containers_.end()) return NotFound("container " + name);
  return it->second.get();
}

std::vector<const Container*> ContainerRuntime::List() const {
  std::vector<const Container*> out;
  out.reserve(containers_.size());
  for (const auto& [name, c] : containers_) out.push_back(c.get());
  return out;
}

}  // namespace swapserve::container
