from repro.kernel.errors import Errno, GuestCrash, SyscallError, strerror


class TestErrno:
    def test_values_match_linux(self):
        assert Errno.ENOENT == 2
        assert Errno.EAGAIN == 11
        assert Errno.EEXIST == 17
        assert Errno.EPIPE == 32
        assert Errno.ENOSYS == 38

    def test_strerror_known(self):
        assert strerror(Errno.ENOENT) == "No such file or directory"
        assert strerror(Errno.EPIPE) == "Broken pipe"

    def test_strerror_unknown(self):
        assert "9999" in strerror(9999)

    def test_every_member_has_a_message_by_int(self):
        for errno in Errno:
            assert strerror(int(errno)) == strerror(errno)
            assert not strerror(errno).startswith("Unknown error")


class TestSyscallError:
    def test_carries_errno_and_syscall(self):
        err = SyscallError(Errno.ENOENT, "open", "/missing")
        assert err.errno == 2
        assert err.syscall == "open"
        assert "/missing" in str(err)
        assert "No such file" in str(err)

    def test_errno_is_plain_int(self):
        err = SyscallError(2, "open")
        assert err.errno == Errno.ENOENT


class TestGuestCrash:
    def test_message_includes_signal(self):
        crash = GuestCrash(11, "bad pointer")
        assert crash.signum == 11
        assert "11" in str(crash)
        assert "bad pointer" in str(crash)
