#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/result.h"
#include "sql/ast.h"

namespace aidb::server {

/// \brief Named prepared-statement templates (PREPARE/EXECUTE/DEALLOCATE).
///
/// Values are shared_ptr-to-const: an EXECUTE that raced a concurrent
/// DEALLOCATE keeps its template alive for the statement it already started,
/// instead of dangling. One store can be database-global (bare Database
/// usage, the fuzzer) or per-session (the server gives each session its own,
/// matching the Postgres scoping rule).
class PreparedStore {
 public:
  /// Registers a template. AlreadyExists when the name is taken — re-PREPARE
  /// requires an explicit DEALLOCATE, so a raced double-PREPARE is loud.
  Status Put(std::shared_ptr<const sql::PrepareStatement> stmt);

  /// The template for `name`, or NotFound.
  Result<std::shared_ptr<const sql::PrepareStatement>> Get(
      const std::string& name) const;

  /// Removes `name` (NotFound when absent).
  Status Remove(const std::string& name);

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<const sql::PrepareStatement>>
      map_;
};

}  // namespace aidb::server
