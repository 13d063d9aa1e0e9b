// Included first, before storage/table.h, as in the manager's own source: its
// destructor must free retired versions correctly even in a translation unit
// where aidb::Version is only forward-declared.
#include "txn/transaction_manager.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "storage/table.h"

namespace aidb::txn {
namespace {

TEST(MvccReclamationTest, DestroyedManagerFreesRetiredVersions) {
  // A version still on the retire list when its manager goes away must be
  // destroyed, not only deallocated: otherwise the heap buffer of its
  // string value leaks, which the AddressSanitizer leak check reports.
  auto tm = std::make_unique<TransactionManager>();
  tm->Retire(new Version({Value(int64_t{1}), Value(std::string(256, 'x'))},
                         kBootstrapTs, kBootstrapTs + 1));
  EXPECT_EQ(tm->RetiredCount(), 1u);
  tm.reset();
}

}  // namespace
}  // namespace aidb::txn
