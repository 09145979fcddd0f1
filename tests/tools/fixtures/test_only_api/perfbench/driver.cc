#include "core/api.h"

int main() { return pmemolap::core::UsedByPerfbench(0); }
