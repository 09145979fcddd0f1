#include "core/api.h"

int main() { return pmemolap::core::UsedByExample(0); }
