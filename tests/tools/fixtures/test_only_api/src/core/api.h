// Fixture tree for the test-only-api rule: each function is used from
// one kind of place only, named on its line.
#pragma once

namespace pmemolap::core {

int OnlyTestsCallThis(int x);  // tests/ only: flagged
int UsedByBench(int x);        // bench/
int UsedByPerfbench(int x);    // perfbench/
int UsedByExample(int x);      // examples/*.cpp
int PrivateHelper(int x);      // its own .cc
void QualifiedAtLineStart(int* out, int x);  // bench/, `ns::Foo(` statement
const char* QualifiedAsArgument(int x);      // bench/, `ns::Foo(` argument
int UsedAfterAComma(int x);  // bench/, continuing an argument list
// lint:allow(test-only-api): name table a test prints on failure
const char* AllowedName(int x);

}  // namespace pmemolap::core
