#include <string>

#include "src/os/types.h"

namespace witos {

std::string ErrName(Err e) {
  switch (e) {
    case Err::kOk:
      return "OK";
    case Err::kPerm:
      return "EPERM";
    case Err::kNoEnt:
      return "ENOENT";
    case Err::kSrch:
      return "ESRCH";
    case Err::kIntr:
      return "EINTR";
    case Err::kIo:
      return "EIO";
    case Err::kBadf:
      return "EBADF";
    case Err::kChild:
      return "ECHILD";
    case Err::kAcces:
      return "EACCES";
    case Err::kBusy:
      return "EBUSY";
    case Err::kExist:
      return "EEXIST";
    case Err::kXdev:
      return "EXDEV";
    case Err::kNoDev:
      return "ENODEV";
    case Err::kNotDir:
      return "ENOTDIR";
    case Err::kIsDir:
      return "EISDIR";
    case Err::kInval:
      return "EINVAL";
    case Err::kNFile:
      return "ENFILE";
    case Err::kMFile:
      return "EMFILE";
    case Err::kTxtBsy:
      return "ETXTBSY";
    case Err::kFBig:
      return "EFBIG";
    case Err::kNoSpc:
      return "ENOSPC";
    case Err::kRoFs:
      return "EROFS";
    case Err::kMLink:
      return "EMLINK";
    case Err::kPipe:
      return "EPIPE";
    case Err::kNameTooLong:
      return "ENAMETOOLONG";
    case Err::kNoSys:
      return "ENOSYS";
    case Err::kNotEmpty:
      return "ENOTEMPTY";
    case Err::kLoop:
      return "ELOOP";
    case Err::kConnRefused:
      return "ECONNREFUSED";
    case Err::kNetUnreach:
      return "ENETUNREACH";
    case Err::kHostUnreach:
      return "EHOSTUNREACH";
    case Err::kTimedOut:
      return "ETIMEDOUT";
    case Err::kNotConn:
      return "ENOTCONN";
    case Err::kAddrInUse:
      return "EADDRINUSE";
    case Err::kNoTty:
      return "ENOTTY";
    case Err::kNoMem:
      return "ENOMEM";
    case Err::kAgain:
      return "EAGAIN";
  }
  return "E?";
}

std::string ErrMessage(Err e) {
  switch (e) {
    case Err::kOk:
      return "Success";
    case Err::kPerm:
      return "Operation not permitted";
    case Err::kNoEnt:
      return "No such file or directory";
    case Err::kSrch:
      return "No such process";
    case Err::kAcces:
      return "Permission denied";
    case Err::kExist:
      return "File exists";
    case Err::kNotDir:
      return "Not a directory";
    case Err::kIsDir:
      return "Is a directory";
    case Err::kInval:
      return "Invalid argument";
    case Err::kBadf:
      return "Bad file descriptor";
    case Err::kBusy:
      return "Device or resource busy";
    case Err::kNotEmpty:
      return "Directory not empty";
    case Err::kRoFs:
      return "Read-only file system";
    case Err::kNoSys:
      return "Function not implemented";
    case Err::kConnRefused:
      return "Connection refused";
    case Err::kNetUnreach:
      return "Network is unreachable";
    case Err::kHostUnreach:
      return "No route to host";
    case Err::kNoDev:
      return "No such device";
    case Err::kLoop:
      return "Too many levels of symbolic links";
    case Err::kNameTooLong:
      return "File name too long";
    default:
      return ErrName(e);
  }
}

}  // namespace witos
