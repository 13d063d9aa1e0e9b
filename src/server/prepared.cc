#include "server/prepared.h"

namespace aidb::server {

Status PreparedStore::Put(std::shared_ptr<const sql::PrepareStatement> stmt) {
  if (!stmt || stmt->name.empty()) {
    return Status::InvalidArgument("prepared statement needs a name");
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = map_.emplace(stmt->name, std::move(stmt));
  if (!inserted) {
    return Status::AlreadyExists("prepared statement " + it->first +
                                 " (DEALLOCATE it first)");
  }
  return Status::OK();
}

Result<std::shared_ptr<const sql::PrepareStatement>> PreparedStore::Get(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(name);
  if (it == map_.end()) return Status::NotFound("prepared statement " + name);
  return it->second;
}

Status PreparedStore::Remove(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (map_.erase(name) == 0) {
    return Status::NotFound("prepared statement " + name);
  }
  return Status::OK();
}

}  // namespace aidb::server
