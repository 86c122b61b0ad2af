// units.h — lightweight strongly-named scalar quantities used across the
// simulator. They are thin wrappers (value semantics, constexpr, no virtual
// anything) that make interfaces self-documenting: a function taking
// `Seconds` cannot silently receive milliseconds.
//
// Arithmetic and comparison on a Quantity compile to the plain double
// operations. Quantity defines `==, <, <=, >, >=` directly on the value
// rather than defaulting `operator<=>`: GCC 12 builds every `a < b` from a
// defaulted `<=>` as a partial_ordering (two compares, two branches) and
// `std::max` as `comisd` plus branches instead of `maxsd`. The results are
// the raw-double ones: NaN makes every ordered compare false and
// -0.0 == +0.0.
#pragma once

#include <cstdint>
#include <limits>

namespace pr {

/// Tagged scalar. `Tag` makes each instantiation a distinct type.
template <typename Tag, typename Rep = double>
class Quantity {
 public:
  using rep = Rep;

  constexpr Quantity() = default;
  constexpr explicit Quantity(Rep v) : value_(v) {}

  [[nodiscard]] constexpr Rep value() const { return value_; }

  friend constexpr bool operator==(Quantity a, Quantity b) {
    return a.value_ == b.value_;
  }
  friend constexpr bool operator<(Quantity a, Quantity b) {
    return a.value_ < b.value_;
  }
  friend constexpr bool operator<=(Quantity a, Quantity b) {
    return a.value_ <= b.value_;
  }
  friend constexpr bool operator>(Quantity a, Quantity b) {
    return a.value_ > b.value_;
  }
  friend constexpr bool operator>=(Quantity a, Quantity b) {
    return a.value_ >= b.value_;
  }

  constexpr Quantity& operator+=(Quantity o) {
    value_ += o.value_;
    return *this;
  }
  constexpr Quantity& operator-=(Quantity o) {
    value_ -= o.value_;
    return *this;
  }
  constexpr Quantity& operator*=(Rep s) {
    value_ *= s;
    return *this;
  }

  friend constexpr Quantity operator+(Quantity a, Quantity b) {
    return Quantity(a.value_ + b.value_);
  }
  friend constexpr Quantity operator-(Quantity a, Quantity b) {
    return Quantity(a.value_ - b.value_);
  }
  friend constexpr Quantity operator*(Quantity a, Rep s) {
    return Quantity(a.value_ * s);
  }
  friend constexpr Quantity operator*(Rep s, Quantity a) {
    return Quantity(s * a.value_);
  }
  friend constexpr Quantity operator/(Quantity a, Rep s) {
    return Quantity(a.value_ / s);
  }
  /// Ratio of two like quantities is a plain scalar.
  friend constexpr Rep operator/(Quantity a, Quantity b) {
    return a.value_ / b.value_;
  }

 private:
  Rep value_{};
};

struct SecondsTag {};
struct JoulesTag {};
struct WattsTag {};
struct CelsiusTag {};

/// Simulation time and durations, in seconds.
using Seconds = Quantity<SecondsTag>;
/// Energy, in joules.
using Joules = Quantity<JoulesTag>;
/// Power, in watts.
using Watts = Quantity<WattsTag>;
/// Temperature, in degrees Celsius.
using Celsius = Quantity<CelsiusTag>;

constexpr Seconds operator""_s(long double v) {
  return Seconds(static_cast<double>(v));
}
constexpr Seconds operator""_s(unsigned long long v) {
  return Seconds(static_cast<double>(v));
}
constexpr Seconds operator""_ms(long double v) {
  return Seconds(static_cast<double>(v) * 1e-3);
}
constexpr Seconds operator""_ms(unsigned long long v) {
  return Seconds(static_cast<double>(v) * 1e-3);
}

/// Energy = power × time.
constexpr Joules operator*(Watts p, Seconds t) {
  return Joules(p.value() * t.value());
}
constexpr Joules operator*(Seconds t, Watts p) { return p * t; }

/// Bytes as an explicit integer type; helpers keep call sites readable.
using Bytes = std::uint64_t;

constexpr Bytes kKiB = 1024;
constexpr Bytes kMiB = 1024 * kKiB;
constexpr Bytes kGiB = 1024 * kMiB;

[[nodiscard]] constexpr double to_mib(Bytes b) {
  return static_cast<double>(b) / static_cast<double>(kMiB);
}

/// Kelvin conversion used by the Arrhenius term (paper §3.4 uses
/// 273.16 + °C, which we follow even though 273.15 is the exact offset —
/// fidelity to the printed constants matters more here).
[[nodiscard]] constexpr double to_kelvin_paper(Celsius c) {
  return 273.16 + c.value();
}

constexpr Seconds kSecondsPerDay{86'400.0};
constexpr Seconds kSecondsPerYear{365.0 * 86'400.0};

/// Invalid/unset time sentinel.
constexpr Seconds kNeverTime{std::numeric_limits<double>::infinity()};

}  // namespace pr
