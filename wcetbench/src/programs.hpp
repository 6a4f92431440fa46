// Seeded mini-C program families and their reference model.
//
// Every generated program is built from counted loops, optionally
// inside two-armed branches, over a 64-word data table. The generator
// keeps the program as a small tree (GenProgram) from which it emits
// mini-C source, the annotation text that declares the program's io
// inputs, and an independent evaluation of the program's result. The
// evaluation is the reference the compiled code is checked against, and
// the loop trip counts are the floor every analysed loop bound must
// reach.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "isa/image.hpp"

namespace wcetbench {

// `for (i = 0; i < trips; i = i + 1) { s = s OP data[index]; }`.
struct GenLoop {
  int trips = 1;
  int stride = 1;
  int offset = 0;
  // false: index = (s + i * stride) & 63, s = s + data[index]
  // true:  index = (i * stride + offset) & 63, s = s ^ data[index]
  bool fixed_index = false;
};

// One statement of a generated function body.
//   loop:         the then_loops in sequence
//   mode_switch:  if (mode == value) { then_loops } else { else_loops }
//   diamond:      if ((s & mask) == value) {
//                   s = s + bump;
//                   if ((s & inner_mask) == 0) { then_loops } else { else_loops }
//                   s = s + 2;
//                 } else { s = s - bump; outer_else_loops }
// The diamond's nested if/else is a single-entry single-exit region that
// sub-function IPET planning can collapse; the flat mode switch has the
// same loops without the enclosing arm.
struct GenStmt {
  enum class Kind { loop, diamond, mode_switch };
  Kind kind = Kind::loop;
  std::vector<GenLoop> then_loops;
  std::vector<GenLoop> else_loops;
  std::vector<GenLoop> outer_else_loops;
  std::uint32_t mask = 0;
  std::uint32_t value = 0;
  std::uint32_t inner_mask = 0;
  std::uint32_t bump = 0;
};

struct GenFunction {
  std::string name;
  std::vector<GenStmt> body;
};

// The program's io inputs: four `in` words and the `mode` word.
struct Inputs {
  std::uint32_t in[4] = {};
  std::uint32_t mode = 0;
};

struct GenProgram {
  std::vector<std::uint32_t> data; // 64 initial words of `data`
  // Call-tree family: main calls every function in order, threading the
  // running total through them. Single-function family: one function
  // named "main" whose body holds every statement.
  std::vector<GenFunction> functions;
  bool single = false;

  std::string source() const;
  // Region statements declaring `in` (and `mode`, if present) as io.
  std::string annotations(const wcet::isa::Image& image) const;
  // The exit code the program must produce on `inputs`.
  std::uint32_t evaluate(const Inputs& inputs) const;
  bool uses_mode() const;
  // Loop trip counts of each function, in source order.
  std::vector<int> trip_counts(const GenFunction& fn) const;
};

// Arg(N)-style call tree: `functions` functions of three counted loops
// each; trip counts, strides and the data table drawn from `seed`.
GenProgram make_call_tree(std::uint64_t seed, int functions);

// Large single function: `diamonds` diamonds and `modes` io-fed mode
// switches, interleaved in a seeded order, each arm holding `arm_loops`
// loops.
GenProgram make_single_function(std::uint64_t seed, int diamonds, int modes, int arm_loops);

// Copy of `program` with the trip count of one loop of one call-tree
// function set to `trips`. The edit changes one immediate only, so the
// compiled code keeps its layout.
GenProgram with_trips(const GenProgram& program, int function, int loop, int trips);

Inputs make_inputs(std::uint64_t seed);

} // namespace wcetbench
