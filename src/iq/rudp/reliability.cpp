#include "iq/rudp/reliability.hpp"

namespace iq::rudp {

bool SkipBudget::may_skip_message() const {
  if (tolerance_ <= 0.0) return false;
  if (offered_ == 0) return false;
  return static_cast<double>(skipped_ + 1) / static_cast<double>(offered_) <=
         tolerance_;
}

double SkipBudget::skipped_fraction() const {
  if (offered_ == 0) return 0.0;
  return static_cast<double>(skipped_) / static_cast<double>(offered_);
}

}  // namespace iq::rudp
