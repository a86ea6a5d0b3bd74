#include "device.h"

#include "trace.h"

namespace perfbench {

DeviceCounts DeviceCounts::operator-(const DeviceCounts& o) const {
  return DeviceCounts{appends - o.appends,           writes - o.writes,
                      fsyncs - o.fsyncs,             bytes_written - o.bytes_written,
                      write_ns - o.write_ns,         reads - o.reads,
                      bytes_read - o.bytes_read,     read_ns - o.read_ns};
}

DeviceCounts DeviceCounters::Snapshot() const {
  DeviceCounts c;
  c.appends = appends.load();
  c.writes = writes.load();
  c.fsyncs = fsyncs.load();
  c.bytes_written = bytes_written_.load();
  c.write_ns = write_ns_.load();
  c.reads = reads_.load();
  c.bytes_read = bytes_read_.load();
  c.read_ns = read_ns_.load();
  return c;
}

void DeviceCounters::AddWrite(std::atomic<uint64_t>* op, uint64_t bytes,
                              int64_t ns) {
  op->fetch_add(1, std::memory_order_relaxed);
  bytes_written_.fetch_add(bytes, std::memory_order_relaxed);
  write_ns_.fetch_add(static_cast<uint64_t>(ns), std::memory_order_relaxed);
}

void DeviceCounters::AddRead(uint64_t bytes, int64_t ns) {
  reads_.fetch_add(1, std::memory_order_relaxed);
  bytes_read_.fetch_add(bytes, std::memory_order_relaxed);
  read_ns_.fetch_add(static_cast<uint64_t>(ns), std::memory_order_relaxed);
}

IoResult BenchDevice::WriteFile(const std::string& name,
                                std::vector<uint8_t> bytes) {
  const size_t n = bytes.size();
  if (counters_ == nullptr) return inner_->WriteFile(name, std::move(bytes));
  const int64_t t0 = MonoNs();
  IoResult r = inner_->WriteFile(name, std::move(bytes));
  const int64_t t1 = MonoNs();
  counters_->AddWrite(&counters_->writes, r.ok() ? n : 0, t1 - t0);
  RecordSpan("device.write", CurrentParent(), 0, t0, t1);
  if (r.ok()) CountBytesWritten(n);
  return r;
}

IoResult BenchDevice::AppendFile(const std::string& name,
                                 const std::vector<uint8_t>& bytes) {
  if (counters_ == nullptr) return inner_->AppendFile(name, bytes);
  const int64_t t0 = MonoNs();
  IoResult r = inner_->AppendFile(name, bytes);
  const int64_t t1 = MonoNs();
  counters_->AddWrite(&counters_->appends, r.ok() ? bytes.size() : 0,
                      t1 - t0);
  RecordSpan("device.append", CurrentParent(), 0, t0, t1);
  if (r.ok()) CountBytesWritten(bytes.size());
  return r;
}

Status BenchDevice::ReadFile(const std::string& name,
                             std::vector<uint8_t>* out) const {
  if (counters_ == nullptr) return inner_->ReadFile(name, out);
  const int64_t t0 = MonoNs();
  Status s = inner_->ReadFile(name, out);
  const int64_t t1 = MonoNs();
  counters_->AddRead(s.ok() ? out->size() : 0, t1 - t0);
  RecordSpan("device.read", CurrentParent(), 0, t0, t1);
  return s;
}

Status BenchDevice::ReadFileShared(
    const std::string& name,
    std::shared_ptr<const std::vector<uint8_t>>* out) const {
  if (counters_ == nullptr) return inner_->ReadFileShared(name, out);
  const int64_t t0 = MonoNs();
  Status s = inner_->ReadFileShared(name, out);
  const int64_t t1 = MonoNs();
  counters_->AddRead(s.ok() && *out != nullptr ? (*out)->size() : 0,
                     t1 - t0);
  RecordSpan("device.read", CurrentParent(), 0, t0, t1);
  return s;
}

IoResult BenchDevice::RemoveFile(const std::string& name) {
  if (counters_ == nullptr) return inner_->RemoveFile(name);
  const int64_t t0 = MonoNs();
  IoResult r = inner_->RemoveFile(name);
  const int64_t t1 = MonoNs();
  counters_->AddWrite(&counters_->removes, 0, t1 - t0);
  RecordSpan("device.remove", CurrentParent(), 0, t0, t1);
  return r;
}

IoResult BenchDevice::SyncBarrier() {
  if (counters_ == nullptr) return inner_->SyncBarrier();
  const int64_t t0 = MonoNs();
  IoResult r = inner_->SyncBarrier();
  const int64_t t1 = MonoNs();
  counters_->AddWrite(&counters_->fsyncs, 0, t1 - t0);
  RecordSpan("device.fsync", CurrentParent(), 0, t0, t1);
  if (r.ok()) CountFsync();
  return r;
}

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

void Mix(uint64_t* h, const uint8_t* p, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    *h ^= p[i];
    *h *= kFnvPrime;
  }
}

}  // namespace

uint64_t FingerprintImage(const std::vector<StorageDevice*>& devices) {
  uint64_t h = kFnvOffset;
  std::vector<uint8_t> bytes;
  for (StorageDevice* d : devices) {
    for (const std::string& name : d->ListFiles("")) {
      Mix(&h, reinterpret_cast<const uint8_t*>(name.data()), name.size());
      if (!d->ReadFile(name, &bytes).ok()) bytes.clear();
      const uint64_t size = bytes.size();
      Mix(&h, reinterpret_cast<const uint8_t*>(&size), sizeof(size));
      Mix(&h, bytes.data(), bytes.size());
    }
    const uint8_t sep = 0xff;
    Mix(&h, &sep, 1);
  }
  return h;
}

DeviceImage CaptureImage(const std::vector<StorageDevice*>& devices) {
  DeviceImage image(devices.size());
  for (size_t i = 0; i < devices.size(); ++i) {
    for (const std::string& name : devices[i]->ListFiles("")) {
      if (!devices[i]->ReadFile(name, &image[i][name]).ok()) {
        image[i].erase(name);
      }
    }
  }
  return image;
}

Status RestoreImage(const std::vector<StorageDevice*>& devices,
                    const DeviceImage& image) {
  std::vector<uint8_t> bytes;
  for (size_t i = 0; i < devices.size(); ++i) {
    StorageDevice* d = devices[i];
    for (const std::string& name : d->ListFiles("")) {
      if (image[i].count(name) != 0) continue;
      IoResult r = d->RemoveFile(name);
      if (!r.ok()) return r.status;
    }
    for (const auto& [name, want] : image[i]) {
      if (d->ReadFile(name, &bytes).ok() && bytes == want) continue;
      IoResult r = d->WriteFile(name, want);
      if (!r.ok()) return r.status;
    }
    IoResult r = d->SyncBarrier();
    if (!r.ok()) return r.status;
  }
  return Status::Ok();
}

}  // namespace perfbench
