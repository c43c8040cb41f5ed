// Figure 6: implicit current time travel (no system-time clause) vs an
// explicit AS OF <current timestamp>, on the engines with a native
// current/history split (A, B, C).
//
// Expected shape (Section 5.3.5): identical answers, but the explicit
// variant reads the history partition because no optimizer recognizes that
// AS OF <now> could prune it — explicit is consistently slower.
#include "bench_common.h"

namespace bih {
namespace bench {
namespace {

void Run() {
  SharedWorkload& w = SharedWorkload::Get();
  PrintHeader("Figure 6: implicit vs explicit current time");
  for (const std::string letter : {"A", "B", "C"}) {
    TemporalEngine& e = w.Engine(letter);
    TimeRow("Fig6/T7_implicit_current/System" + letter,
            [&] { T7Implicit(e); });
    TimeRow("Fig6/T7_explicit_current/System" + letter,
            [&] { T7Explicit(e); });
  }
}

}  // namespace
}  // namespace bench
}  // namespace bih

int main() {
  bih::bench::Run();
  return 0;
}
