#include "nn/serialize.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <map>
#include <stdexcept>
#include <utility>

namespace pgti::nn {
namespace {

constexpr std::uint32_t kMagic = 0x50475449;  // "PGTI"

void write_u64(std::ofstream& os, std::uint64_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint64_t read_u64(std::ifstream& is) {
  std::uint64_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!is) throw std::runtime_error("checkpoint: truncated file");
  return v;
}

}  // namespace

void save_checkpoint(const Module& module, const std::string& path) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) throw std::runtime_error("checkpoint: cannot open " + path + " for writing");
  const auto named = module.named_parameters();
  std::uint32_t magic = kMagic;
  os.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  write_u64(os, named.size());
  for (const auto& [name, param] : named) {
    write_u64(os, name.size());
    os.write(name.data(), static_cast<std::streamsize>(name.size()));
    const Tensor value = param.value().contiguous();
    write_u64(os, static_cast<std::uint64_t>(value.dim()));
    for (int d = 0; d < value.dim(); ++d) {
      write_u64(os, static_cast<std::uint64_t>(value.size(d)));
    }
    os.write(reinterpret_cast<const char*>(value.data()),
             static_cast<std::streamsize>(value.numel() * sizeof(float)));
  }
  if (!os) throw std::runtime_error("checkpoint: write failed for " + path);
}

void load_checkpoint(Module& module, const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("checkpoint: cannot open " + path);
  std::uint32_t magic = 0;
  is.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  if (!is || magic != kMagic) throw std::runtime_error("checkpoint: bad magic in " + path);

  // Parameter -> whether the file has supplied it yet.
  std::map<std::string, std::pair<Variable, bool>> params;
  std::size_t longest_name = 0;
  for (auto& [name, p] : module.named_parameters()) {
    longest_name = std::max(longest_name, name.size());
    params.emplace(name, std::make_pair(p, false));
  }

  const std::uint64_t count = read_u64(is);
  for (std::uint64_t i = 0; i < count; ++i) {
    // Every length and dimension below comes from the file: each is
    // checked against the module before it sizes anything.
    const std::uint64_t name_len = read_u64(is);
    if (name_len > longest_name) {
      throw std::runtime_error("checkpoint: parameter name longer than any in the module");
    }
    std::string name(name_len, '\0');
    is.read(name.data(), static_cast<std::streamsize>(name_len));
    if (!is) throw std::runtime_error("checkpoint: truncated file");
    auto it = params.find(name);
    if (it == params.end()) {
      throw std::runtime_error("checkpoint: unknown parameter '" + name + "'");
    }
    auto& [param, loaded] = it->second;
    if (loaded) throw std::runtime_error("checkpoint: parameter '" + name + "' repeated");
    const Shape& shape = param.value().shape();
    if (read_u64(is) != shape.size()) {
      throw std::runtime_error("checkpoint: shape mismatch for '" + name + "'");
    }
    for (std::int64_t dim : shape) {
      if (read_u64(is) != static_cast<std::uint64_t>(dim)) {
        throw std::runtime_error("checkpoint: shape mismatch for '" + name + "'");
      }
    }
    Tensor staged = Tensor::empty(shape);
    is.read(reinterpret_cast<char*>(staged.data()),
            static_cast<std::streamsize>(staged.numel() * sizeof(float)));
    if (!is) throw std::runtime_error("checkpoint: truncated tensor data");
    param.mutable_value().copy_from(staged);
    loaded = true;
  }
  for (const auto& [name, entry] : params) {
    if (!entry.second) {
      throw std::runtime_error("checkpoint: file is missing parameter '" + name + "'");
    }
  }
}

}  // namespace pgti::nn
