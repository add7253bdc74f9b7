// Podman-like container runtime: creation, naming, address assignment, and
// the container index SwapServeLLM keeps (§3.2: "unique identifier, IP
// address, published TCP port ... stored in an index data structure").

#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "container/container.h"
#include "container/image.h"
#include "sim/simulation.h"
#include "util/status.h"

namespace swapserve::container {

class ContainerRuntime {
 public:
  ContainerRuntime(sim::Simulation& sim, ImageRegistry registry);
  ContainerRuntime(const ContainerRuntime&) = delete;
  ContainerRuntime& operator=(const ContainerRuntime&) = delete;

  // Create a container from a registered image; assigns a unique id, a
  // 10.88.0.0/16 address, and a host port. Names must be unique.
  Result<Container*> Create(const std::string& name,
                            const std::string& image_name);

  Result<Container*> Find(const std::string& name);

  std::vector<const Container*> List() const;
  std::size_t count() const { return containers_.size(); }
  const ImageRegistry& registry() const { return registry_; }

 private:
  sim::Simulation& sim_;
  ImageRegistry registry_;
  std::uint64_t next_id_ = 1;
  int next_port_ = 40000;
  std::map<std::string, std::unique_ptr<Container>> containers_;
};

}  // namespace swapserve::container
