#include "programs.hpp"

#include <sstream>
#include <stdexcept>

#include "support/rng.hpp"

namespace wcetbench {

namespace {

constexpr std::uint32_t kModes = 4; // mode_switch tests mode == 0..3

std::vector<std::uint32_t> make_data(wcet::Rng& rng) {
  std::vector<std::uint32_t> data(64);
  for (std::uint32_t& word : data) word = rng.below(256);
  return data;
}

GenLoop make_loop(wcet::Rng& rng, bool fixed_index) {
  GenLoop loop;
  loop.trips = 3 + static_cast<int>(rng.below(8)); // 3..10
  loop.stride = 1 + static_cast<int>(rng.below(12));
  loop.offset = static_cast<int>(rng.below(64));
  loop.fixed_index = fixed_index;
  return loop;
}

void emit_loop(std::ostringstream& os, const GenLoop& loop, const char* indent) {
  os << indent << "for (i = 0; i < " << loop.trips << "; i = i + 1) { ";
  if (loop.fixed_index) {
    os << "s = s ^ data[(i * " << loop.stride << " + " << loop.offset << ") & 63];";
  } else {
    os << "s = s + data[(s + i * " << loop.stride << ") & 63];";
  }
  os << " }\n";
}

std::uint32_t run_loop(const GenLoop& loop, const std::vector<std::uint32_t>& data,
                       std::uint32_t s) {
  for (std::uint32_t i = 0; i < static_cast<std::uint32_t>(loop.trips); ++i) {
    if (loop.fixed_index) {
      s ^= data[(i * static_cast<std::uint32_t>(loop.stride) +
                 static_cast<std::uint32_t>(loop.offset)) & 63u];
    } else {
      s += data[(s + i * static_cast<std::uint32_t>(loop.stride)) & 63u];
    }
  }
  return s;
}

std::uint32_t run_loops(const std::vector<GenLoop>& loops,
                        const std::vector<std::uint32_t>& data, std::uint32_t s) {
  for (const GenLoop& loop : loops) s = run_loop(loop, data, s);
  return s;
}

std::uint32_t run_body(const GenFunction& fn, const std::vector<std::uint32_t>& data,
                       std::uint32_t s, std::uint32_t mode) {
  for (const GenStmt& st : fn.body) {
    switch (st.kind) {
    case GenStmt::Kind::loop: s = run_loops(st.then_loops, data, s); break;
    case GenStmt::Kind::mode_switch:
      s = run_loops(mode == st.value ? st.then_loops : st.else_loops, data, s);
      break;
    case GenStmt::Kind::diamond:
      if ((s & st.mask) != st.value) {
        s = run_loops(st.outer_else_loops, data, s - st.bump);
        break;
      }
      s += st.bump;
      s = run_loops((s & st.inner_mask) == 0 ? st.then_loops : st.else_loops, data, s);
      s += 2;
      break;
    }
  }
  return s;
}

void emit_body(std::ostringstream& os, const GenFunction& fn) {
  for (const GenStmt& st : fn.body) {
    if (st.kind == GenStmt::Kind::loop) {
      for (const GenLoop& loop : st.then_loops) emit_loop(os, loop, "  ");
      continue;
    }
    if (st.kind == GenStmt::Kind::mode_switch) {
      os << "  if (mode == " << st.value << ") {\n";
      for (const GenLoop& loop : st.then_loops) emit_loop(os, loop, "    ");
      os << "  } else {\n";
      for (const GenLoop& loop : st.else_loops) emit_loop(os, loop, "    ");
      os << "  }\n";
      continue;
    }
    os << "  if ((s & " << st.mask << ") == " << st.value << ") {\n";
    os << "    s = s + " << st.bump << ";\n";
    os << "    if ((s & " << st.inner_mask << ") == 0) {\n";
    for (const GenLoop& loop : st.then_loops) emit_loop(os, loop, "      ");
    os << "    } else {\n";
    for (const GenLoop& loop : st.else_loops) emit_loop(os, loop, "      ");
    os << "    }\n";
    os << "    s = s + 2;\n";
    os << "  } else {\n    s = s - " << st.bump << ";\n";
    for (const GenLoop& loop : st.outer_else_loops) emit_loop(os, loop, "    ");
    os << "  }\n";
  }
}

const wcet::isa::Symbol& symbol(const wcet::isa::Image& image, const char* name) {
  const wcet::isa::Symbol* sym = image.find_symbol(name);
  if (sym == nullptr) throw std::runtime_error(std::string("no symbol ") + name);
  return *sym;
}

} // namespace

std::string GenProgram::source() const {
  std::ostringstream os;
  os << "int in[4];\n";
  if (uses_mode()) os << "int mode;\n";
  os << "int data[64] = {";
  for (std::size_t k = 0; k < data.size(); ++k) os << (k ? "," : "") << data[k];
  os << "};\n";
  if (single) {
    os << "int main(void) {\n  int s = in[0];\n  int i;\n";
    emit_body(os, functions.front());
    os << "  return s;\n}\n";
    return os.str();
  }
  for (const GenFunction& fn : functions) {
    os << "int " << fn.name << "(int x) {\n  int s = x;\n  int i;\n";
    emit_body(os, fn);
    os << "  return s;\n}\n";
  }
  os << "int main(void) {\n  int total = in[0];\n";
  for (const GenFunction& fn : functions) os << "  total = total + " << fn.name << "(total);\n";
  os << "  return total;\n}\n";
  return os.str();
}

std::string GenProgram::annotations(const wcet::isa::Image& image) const {
  std::ostringstream os;
  os << "region \"in\" at " << symbol(image, "in").addr << " size 16 read 2 write 2 io\n";
  if (uses_mode()) {
    os << "region \"mode\" at " << symbol(image, "mode").addr << " size 4 read 2 write 2 io\n";
  }
  return os.str();
}

std::uint32_t GenProgram::evaluate(const Inputs& inputs) const {
  if (single) return run_body(functions.front(), data, inputs.in[0], inputs.mode);
  std::uint32_t total = inputs.in[0];
  for (const GenFunction& fn : functions) total += run_body(fn, data, total, inputs.mode);
  return total;
}

bool GenProgram::uses_mode() const {
  for (const GenFunction& fn : functions) {
    for (const GenStmt& st : fn.body) {
      if (st.kind == GenStmt::Kind::mode_switch) return true;
    }
  }
  return false;
}

std::vector<int> GenProgram::trip_counts(const GenFunction& fn) const {
  std::vector<int> trips;
  for (const GenStmt& st : fn.body) {
    for (const GenLoop& loop : st.then_loops) trips.push_back(loop.trips);
    for (const GenLoop& loop : st.else_loops) trips.push_back(loop.trips);
    for (const GenLoop& loop : st.outer_else_loops) trips.push_back(loop.trips);
  }
  return trips;
}

GenProgram make_call_tree(std::uint64_t seed, int functions) {
  wcet::Rng rng(seed);
  GenProgram p;
  p.data = make_data(rng);
  for (int f = 0; f < functions; ++f) {
    GenFunction fn;
    fn.name = "work" + std::to_string(f);
    for (int l = 0; l < 3; ++l) {
      GenStmt st;
      st.then_loops.push_back(make_loop(rng, l == 1));
      fn.body.push_back(st);
    }
    p.functions.push_back(std::move(fn));
  }
  return p;
}

GenProgram make_single_function(std::uint64_t seed, int diamonds, int modes, int arm_loops) {
  wcet::Rng rng(seed);
  GenProgram p;
  p.single = true;
  p.data = make_data(rng);
  GenFunction fn;
  fn.name = "main";
  int left_diamonds = diamonds;
  int left_modes = modes;
  while (left_diamonds + left_modes > 0) {
    GenStmt st;
    const bool diamond =
        rng.below(static_cast<std::uint32_t>(left_diamonds + left_modes)) <
        static_cast<std::uint32_t>(left_diamonds);
    if (diamond) {
      st.kind = GenStmt::Kind::diamond;
      st.mask = 1u << rng.below(6);
      st.value = rng.below(2) ? st.mask : 0;
      st.inner_mask = 1u << rng.below(6);
      st.bump = 1 + rng.below(100);
      --left_diamonds;
    } else {
      st.kind = GenStmt::Kind::mode_switch;
      st.value = rng.below(kModes);
      --left_modes;
    }
    for (int l = 0; l < arm_loops; ++l) {
      st.then_loops.push_back(make_loop(rng, l % 2 == 1));
      st.else_loops.push_back(make_loop(rng, l % 2 == 0));
      if (diamond) st.outer_else_loops.push_back(make_loop(rng, l % 2 == 1));
    }
    fn.body.push_back(st);
  }
  p.functions.push_back(std::move(fn));
  return p;
}

GenProgram with_trips(const GenProgram& program, int function, int loop, int trips) {
  GenProgram edited = program;
  edited.functions.at(static_cast<std::size_t>(function))
      .body.at(static_cast<std::size_t>(loop))
      .then_loops.at(0)
      .trips = trips;
  return edited;
}

Inputs make_inputs(std::uint64_t seed) {
  wcet::Rng rng(seed);
  Inputs inputs;
  for (std::uint32_t& word : inputs.in) word = rng.next_u32();
  inputs.mode = rng.below(kModes);
  return inputs;
}

} // namespace wcetbench
