#include "memsys/workload.h"

namespace pmemolap {

const char* OpTypeName(OpType op) {
  switch (op) {
    case OpType::kRead:
      return "read";
    case OpType::kWrite:
      return "write";
  }
  return "unknown";
}

const char* PatternName(Pattern pattern) {
  switch (pattern) {
    case Pattern::kSequentialGrouped:
      return "grouped";
    case Pattern::kSequentialIndividual:
      return "individual";
    case Pattern::kRandom:
      return "random";
  }
  return "unknown";
}

const char* WriteInstructionName(WriteInstruction instruction) {
  switch (instruction) {
    case WriteInstruction::kNtStore:
      return "ntstore";
    case WriteInstruction::kClwb:
      return "store+clwb";
    case WriteInstruction::kClflushOpt:
      return "store+clflushopt";
  }
  return "unknown";
}

}  // namespace pmemolap
