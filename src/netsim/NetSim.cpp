//===- netsim/NetSim.cpp --------------------------------------------------==//

#include "netsim/NetSim.h"

#include "netsim/Reactor.h"
#include "runtime/Alloc.h"

#include <cassert>

using namespace ren;
using namespace ren::netsim;

//===----------------------------------------------------------------------===//
// ByteBuffer
//===----------------------------------------------------------------------===//

void ByteBuffer::writeU32(uint32_t V) {
  for (int Shift = 0; Shift < 32; Shift += 8)
    Data.push_back(static_cast<uint8_t>(V >> Shift));
}

void ByteBuffer::writeU64(uint64_t V) {
  for (int Shift = 0; Shift < 64; Shift += 8)
    Data.push_back(static_cast<uint8_t>(V >> Shift));
}

void ByteBuffer::writeString(const std::string &S) {
  writeU32(static_cast<uint32_t>(S.size()));
  Data.insert(Data.end(), S.begin(), S.end());
}

uint32_t ByteBuffer::readU32() {
  assert(remaining() >= 4 && "buffer underflow");
  uint32_t V = 0;
  for (int Shift = 0; Shift < 32; Shift += 8)
    V |= static_cast<uint32_t>(Data[ReadPos++]) << Shift;
  return V;
}

uint64_t ByteBuffer::readU64() {
  assert(remaining() >= 8 && "buffer underflow");
  uint64_t V = 0;
  for (int Shift = 0; Shift < 64; Shift += 8)
    V |= static_cast<uint64_t>(Data[ReadPos++]) << Shift;
  return V;
}

std::string ByteBuffer::readString() {
  uint32_t Len = readU32();
  assert(remaining() >= Len && "buffer underflow");
  std::string S(Data.begin() + static_cast<ptrdiff_t>(ReadPos),
                Data.begin() + static_cast<ptrdiff_t>(ReadPos + Len));
  ReadPos += Len;
  return S;
}

//===----------------------------------------------------------------------===//
// ClientConnection
//===----------------------------------------------------------------------===//

ClientConnection::ClientConnection(std::shared_ptr<Connection> C)
    : Conn(std::move(C)) {}

ClientConnection::~ClientConnection() { close(); }

futures::Future<Bytes> ClientConnection::call(Bytes Request) {
  return Conn->call(std::move(Request));
}

void ClientConnection::close() { Conn->close(); }

//===----------------------------------------------------------------------===//
// Server
//===----------------------------------------------------------------------===//

Server::Server(std::string Name, Handler Handle, unsigned Shards)
    : Server(std::move(Name), std::move(Handle),
             ServerOptions{Shards, false, 0x5eedc0de}) {}

Server::Server(std::string ServiceName, Handler Handle, ServerOptions Opts)
    : Name(std::move(ServiceName)),
      Core(std::make_unique<Reactor>(std::move(Handle), Opts)) {}

Server::~Server() = default;

std::unique_ptr<ClientConnection> Server::connect() {
  return std::unique_ptr<ClientConnection>(
      new ClientConnection(Core->open()));
}

uint64_t Server::requestsHandled() { return Core->requestsHandled(); }

unsigned Server::shards() const { return Core->shards(); }

bool Server::deterministic() const { return Core->deterministic(); }

size_t Server::pump(size_t MaxFrames) { return Core->pump(MaxFrames); }

size_t Server::runUntilIdle() { return Core->runUntilIdle(); }

uint64_t Server::virtualNanos() const { return Core->virtualNanos(); }

bool Server::idle() const { return Core->idle(); }
