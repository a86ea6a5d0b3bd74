// Client side of the length-prefixed wire protocol (docs/PROTOCOL.md):
// blocking frames over one connection.
#ifndef PERFBENCH_WIRE_H_
#define PERFBENCH_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class WireConn {
 public:
  WireConn() = default;
  ~WireConn();
  WireConn(const WireConn&) = delete;
  WireConn& operator=(const WireConn&) = delete;

  // Connect + Hello + OpenSession.
  bool Open(uint16_t port);
  bool GetProc(const std::string& name, uint32_t* id);

  bool Send(const std::string& wire);
  // Blocks until a whole frame arrives; its payload starts with the type.
  bool RecvFrame(std::vector<uint8_t>* payload);

 private:
  // One recv() into the inbound buffer; false on EOF or error.
  bool ReadSome();
  // Pops the next complete frame's payload (type byte first) if buffered.
  bool NextFrame(std::vector<uint8_t>* payload);

  int fd_ = -1;
  std::string in_;
  size_t in_off_ = 0;
};

std::string FlushFrame();

}  // namespace perfbench

#endif  // PERFBENCH_WIRE_H_
