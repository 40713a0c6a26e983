"""The README's front-door code paths, kept honest."""

import os
import subprocess
import sys

import repro


class TestReadmeSnippets:
    def test_quickstart_block_device(self):
        vld = repro.VirtualLogDisk(repro.Disk(repro.ST19101))
        breakdown = vld.write_block(1234, b"payload" + bytes(4089))
        assert breakdown.total > 0
        vld.power_down()
        vld.crash()
        outcome = vld.recover()
        assert outcome.used_power_down_record
        data, _ = vld.read_block(1234)
        assert data.startswith(b"payload")

    def test_quickstart_file_system(self):
        fs = repro.UFS(
            repro.VirtualLogDisk(repro.Disk(repro.ST19101)),
            repro.SPARCSTATION_10,
        )
        fs.mkdir("/mail")
        fs.create("/mail/inbox")
        fs.write("/mail/inbox", 0, b"hello", sync=True)
        data, latency = fs.read("/mail/inbox", 0, 5)
        assert data == b"hello"
        assert latency.total > 0

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_every_public_module_has_docstring(self):
        import importlib
        import pkgutil

        for module_info in pkgutil.walk_packages(
            repro.__path__, prefix="repro."
        ):
            module = importlib.import_module(module_info.name)
            assert module.__doc__, f"{module_info.name} lacks a docstring"

    def test_importing_the_library_does_not_import_numpy(self):
        # A fresh interpreter: this one may have numpy loaded already.
        src = os.path.dirname(os.path.dirname(repro.__file__))
        code = (
            "import sys, repro, repro.harness.configs, repro.nvm; "
            "sys.exit('numpy' in sys.modules)"
        )
        env = dict(os.environ, PYTHONPATH=src)
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestCrossLayerSmoke:
    def test_all_three_filesystems_share_the_api(self):
        from repro.blockdev import RegularDisk

        stacks = [
            repro.UFS(
                RegularDisk(repro.Disk(repro.ST19101)),
                repro.SPARCSTATION_10,
            ),
            repro.LFS(
                RegularDisk(repro.Disk(repro.ST19101)),
                repro.SPARCSTATION_10,
            ),
            repro.VLFS(repro.Disk(repro.ST19101), repro.SPARCSTATION_10),
        ]
        for fs in stacks:
            fs.mkdir("/d")
            fs.create("/d/f")
            fs.write("/d/f", 0, b"shared api", sync=True)
            fs.rename("/d/f", "/d/g")
            fs.truncate("/d/g", 6)
            fs.sync()
            fs.drop_caches()
            data, _ = fs.read("/d/g", 0, 10)
            assert data == b"shared"
            fs.unlink("/d/g")
            fs.rmdir("/d")
            assert fs.listdir("/") == []

    def test_vld_read_blocks_with_holes(self):
        vld = repro.VirtualLogDisk(repro.Disk(repro.ST19101))
        vld.write_block(10, b"\x01" * 4096)
        vld.write_block(12, b"\x03" * 4096)
        data, _ = vld.read_blocks(9, 5)  # hole, mapped, hole, mapped, hole
        assert data[0:4096] == bytes(4096)
        assert data[4096:8192] == b"\x01" * 4096
        assert data[8192:12288] == bytes(4096)
        assert data[12288:16384] == b"\x03" * 4096
        assert data[16384:] == bytes(4096)

    def test_disk_transfer_across_cylinder_boundary(self):
        disk = repro.Disk(repro.ST19101)
        per_cyl = disk.geometry.sectors_per_cylinder
        start = per_cyl - 16  # last 16 sectors of cylinder 0
        payload = bytes(range(256)) * (32 * 512 // 256)
        disk.write(start, 32, payload)
        data, _ = disk.read(start, 32)
        assert data == payload
        assert disk.head_cylinder == 1
