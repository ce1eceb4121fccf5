// p8lint-fixture: path=bench/bench_fixture_clean.cpp expect=none
// Clean twin: a bench-scoped file registering documented counter names,
// so the counter rules run under bench/ and stay quiet.  Zero findings
// expected.
struct Reg;
struct Machine;
unsigned long* make_counter(Reg& r, const char* prefix, const char* name);
Machine* build(const char* name);
void gate_model(Machine&);
void run(Machine&, unsigned long*);

int main(int argc, char** argv) {
  p8::common::ArgParser args(argc, argv);
  const char* name = machine_arg(args);
  Machine* machine = build(name);
  gate_model(*machine);
  Reg* reg = nullptr;
  unsigned long* hits = make_counter(*reg, "l3.victim", ".hit");
  run(*machine, hits);
  return 0;
}
