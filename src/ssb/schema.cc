#include "ssb/schema.h"

namespace pmemolap::ssb {

namespace {

const char* const kNationNames[kNumNations] = {
    // AFRICA
    "ALGERIA", "ETHIOPIA", "KENYA", "MOROCCO", "MOZAMBIQUE",
    // AMERICA
    "ARGENTINA", "BRAZIL", "CANADA", "PERU", "UNITED STATES",
    // ASIA
    "CHINA", "INDIA", "INDONESIA", "JAPAN", "VIETNAM",
    // EUROPE
    "FRANCE", "GERMANY", "ROMANIA", "RUSSIA", "UNITED KINGDOM",
    // MIDDLE EAST
    "EGYPT", "IRAN", "IRAQ", "JORDAN", "SAUDI ARABIA"};

}  // namespace

std::string NationName(int nation) {
  if (nation < 0 || nation >= kNumNations) return "UNKNOWN";
  return kNationNames[nation];
}

std::string CityName(int city_id) {
  int nation = city_id / kCitiesPerNation;
  int digit = city_id % kCitiesPerNation;
  if (nation < 0 || nation >= kNumNations) return "UNKNOWN";
  // SSB cities: nation name padded/truncated to 9 chars + one digit.
  std::string name = kNationNames[nation];
  name.resize(9, ' ');
  name += static_cast<char>('0' + digit);
  return name;
}

}  // namespace pmemolap::ssb
